package analysis

import (
	"rasc/internal/bitvector"
	"rasc/internal/gosrc"
)

// builtins is the checker suite, the whole registry: the Go-facing
// properties already in the toolkit (doublelock, fileleak, taint), the
// sql.Rows and sync.WaitGroup typestate checkers, the per-channel
// close/send-after-close and RWMutex properties, and the model-based
// concurrency checkers (race, lockorder) built on the goroutine/lockset
// abstraction in conc.go. Adding a checker is adding an entry here.
var builtins = []*Checker{
	{
		Name:     "race",
		Doc:      "shared variable accessed by concurrent goroutines without a common lock",
		Severity: SeverityError,
		Run:      raceDiagnostics,
		Version:  "3",
		Message:  "possible data race on %s: conflicting accesses from concurrent goroutines with no common lock held",
	},
	{
		Name:     "lockorder",
		Doc:      "two locks acquired in opposite orders on different paths (deadlock risk)",
		Severity: SeverityWarning,
		Run:      lockOrderDiagnostics,
		Version:  "3",
		Message:  "locks %s are acquired in opposite orders on different paths (deadlock risk)",
	},
	{
		Name:      "chanclose",
		Doc:       "channel closed twice or sent on after close",
		Severity:  SeverityError,
		Mode:      ModeViolations,
		Spec:      gosrc.ChanCloseSpecSrc,
		NewEvents: gosrc.ChanCloseEvents,
		Message:   "channel %s may be closed or sent on after being closed",
	},
	{
		Name:      "rwlock",
		Doc:       "sync.RWMutex.RUnlock called with no read lock held",
		Severity:  SeverityError,
		Mode:      ModeViolations,
		Spec:      gosrc.RWLockSpecSrc,
		NewEvents: gosrc.RWLockEvents,
		Message:   "RWMutex %s: RUnlock without a matching RLock",
	},
	{
		Name:      "doublelock",
		Doc:       "sync.Mutex locked while held, or unlocked while not held",
		Severity:  SeverityError,
		Mode:      ModeViolations,
		Spec:      gosrc.DoubleLockSpecSrc,
		NewEvents: gosrc.DoubleLockEvents,
		Message:   "mutex %s locked while already held (or unlocked while not held)",
	},
	{
		Name:      "fileleak",
		Doc:       "file opened with os.Open/OpenFile/Create possibly not closed",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      gosrc.FileLeakSpecSrc,
		NewEvents: gosrc.FileLeakEvents,
		Message:   "file %s possibly still open when the entry function returns",
	},
	{
		Name:      "taint",
		Doc:       "value from source() reaches sink() without sanitize()",
		Severity:  SeverityError,
		Mode:      ModeViolations,
		Spec:      bitvector.TaintSpecSrc,
		NewEvents: bitvector.TaintEvents,
		Message:   "tainted value %s reaches a sink unsanitized",
	},
	{
		Name:      "sqlrows",
		Doc:       "sql.Rows from Query/QueryContext possibly not closed",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      gosrc.SQLRowsSpecSrc,
		NewEvents: gosrc.SQLRowsEvents,
		Message:   "rows %s possibly still open when the entry function returns",
	},
	{
		Name:      "waitgroup",
		Doc:       "sync.WaitGroup counter misuse: Add after Wait, or Done driving the counter negative",
		Severity:  SeverityError,
		Mode:      ModeViolations,
		Spec:      gosrc.WaitGroupCountSpecSrc,
		NewEvents: gosrc.WaitGroupCountEvents,
		Version:   "3",
		Message:   "WaitGroup %s misused: Add after Wait, or more Done calls than the Add total",
	},
	{
		Name:      "semabalance",
		Doc:       "semaphore Acquire/Release balance: permits still held (or over-released) at exit",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      gosrc.SemaBalanceSpecSrc,
		NewEvents: gosrc.SemaBalanceEvents,
		Version:   "2",
		Message:   "semaphore %s: acquires and releases may be unbalanced when the entry function returns",
	},
	{
		Name:      "lockbalance",
		Doc:       "mutex Lock/Unlock balance: lock still held (or over-unlocked) at exit",
		Severity:  SeverityWarning,
		Mode:      ModeLeakAtExit,
		Spec:      gosrc.LockBalanceSpecSrc,
		NewEvents: gosrc.LockBalanceEvents,
		Message:   "mutex %s: Lock and Unlock calls may be unbalanced when the entry function returns",
	},
	{
		Name:      "poolexchange",
		Doc:       "sync.Pool-style Get/Put exchange: outstanding Get results may exceed the band",
		Severity:  SeverityWarning,
		Mode:      ModeViolations,
		Spec:      gosrc.PoolExchangeSpecSrc,
		NewEvents: gosrc.PoolExchangeEvents,
		Message:   "pool %s: more than 4 Get results outstanding (Get/Put exchange unbalanced)",
	},
	{
		Name:      "poolexhaust",
		Doc:       "connection-pool checkouts in flight may exceed the pool capacity",
		Severity:  SeverityWarning,
		Mode:      ModeViolations,
		Spec:      gosrc.PoolExhaustSpecSrc,
		NewEvents: gosrc.PoolExhaustEvents,
		Message:   "pool %s: more than 4 connections may be checked out at once",
	},
	{
		Name:      "depthbound",
		Doc:       "Enter/Leave nesting depth may exceed the declared bound",
		Severity:  SeverityWarning,
		Mode:      ModeViolations,
		Spec:      gosrc.DepthBoundSpecSrc,
		NewEvents: gosrc.DepthBoundEvents,
		Message:   "Enter/Leave nesting may exceed depth 4 (counter saturated at its bound)",
	},
}
