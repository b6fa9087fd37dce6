package gosrc

import (
	"rasc/internal/core"
	"rasc/internal/minic"
	"rasc/internal/pdm"
	"rasc/internal/spec"
)

// Ready-made properties for Go API-usage checking.

// DoubleLockSpecSrc: locking a sync.Mutex that is already locked
// self-deadlocks; the property is parametric in the mutex (receiver)
// name. Unlocking an unlocked mutex is also an error in Go, so both
// misuses share the Error state.
const DoubleLockSpecSrc = `
start state Unlocked :
    | lock(x) -> Locked
    | unlock(x) -> Error;

state Locked :
    | unlock(x) -> Unlocked
    | lock(x) -> Error;

accept state Error;
`

// DoubleLockProperty compiles DoubleLockSpecSrc.
func DoubleLockProperty() *spec.Property { return spec.MustCompile(DoubleLockSpecSrc) }

// DoubleLockEvents maps mu.Lock()/mu.Unlock() to the property alphabet,
// labelled by the receiver.
func DoubleLockEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Lock", ArgIndex: -1, Symbol: "lock", LabelArg: 0},
		{Callee: "Unlock", ArgIndex: -1, Symbol: "unlock", LabelArg: 0},
	}}
}

// FileLeakSpecSrc: a file opened with os.Open should be closed; the
// accepting Open state at function exit marks a leak (queried with
// OpenInstancesAtExit, like §6.4's descriptor example).
const FileLeakSpecSrc = `
start state Closed :
    | open(x) -> Opened;

accept state Opened :
    | close(x) -> Closed;
`

// FileLeakProperty compiles FileLeakSpecSrc.
func FileLeakProperty() *spec.Property { return spec.MustCompile(FileLeakSpecSrc) }

// FileLeakEvents: f, err := os.Open(...) opens f; f.Close() closes it.
func FileLeakEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Open", ArgIndex: -1, Symbol: "open", LabelArg: -1, LabelFromAssign: true},
		{Callee: "OpenFile", ArgIndex: -1, Symbol: "open", LabelArg: -1, LabelFromAssign: true},
		{Callee: "Create", ArgIndex: -1, Symbol: "open", LabelArg: -1, LabelFromAssign: true},
		{Callee: "Close", ArgIndex: -1, Symbol: "close", LabelArg: 0},
	}}
}

// SQLRowsSpecSrc: a *sql.Rows returned by Query must be closed before
// the function exits, or the connection is held. Same shape as the file
// leak property: the accepting Open state at exit marks the leak.
const SQLRowsSpecSrc = `
start state Done :
    | query(x) -> Pending;

accept state Pending :
    | close(x) -> Done;
`

// SQLRowsEvents: rows, err := db.Query(...) opens rows; rows.Close()
// closes them.
func SQLRowsEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "Query", ArgIndex: -1, Symbol: "query", LabelArg: -1, LabelFromAssign: true},
		{Callee: "QueryContext", ArgIndex: -1, Symbol: "query", LabelArg: -1, LabelFromAssign: true},
		{Callee: "Close", ArgIndex: -1, Symbol: "close", LabelArg: 0},
	}}
}

// ChanCloseSpecSrc: closing an already-closed channel and sending on a
// closed channel both panic at run time. The translation exposes channel
// operations as $chan.send/$chan.close calls parametric in the channel,
// so the property is per channel object.
const ChanCloseSpecSrc = `
start state Open :
    | send(x) -> Open
    | close(x) -> Closed;

state Closed :
    | close(x) -> Error
    | send(x) -> Error;

accept state Error;
`

// ChanCloseEvents: the synthesized $chan.send/$chan.close actions,
// labelled by the channel rendering (argument 0).
func ChanCloseEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "$chan.send", ArgIndex: -1, Symbol: "send", LabelArg: 0},
		{Callee: "$chan.close", ArgIndex: -1, Symbol: "close", LabelArg: 0},
	}}
}

// RWLockSpecSrc: calling RUnlock on a sync.RWMutex with no read lock
// held is a run-time fatal error. A finite property cannot count reader
// depth, so depth two and beyond is an absorbing state (Deep) that never
// errors: nesting is under-approximated rather than false-flagged, and
// only a clearly unmatched RUnlock reaches Error.
const RWLockSpecSrc = `
start state Free :
    | rlock(x) -> R1
    | runlock(x) -> Error;

state R1 :
    | rlock(x) -> Deep
    | runlock(x) -> Free;

state Deep :
    | rlock(x) -> Deep
    | runlock(x) -> Deep;

accept state Error;
`

// RWLockEvents: mu.RLock()/mu.RUnlock(), labelled by the receiver.
func RWLockEvents() *minic.EventMap {
	return &minic.EventMap{Rules: []minic.Rule{
		{Callee: "RLock", ArgIndex: -1, Symbol: "rlock", LabelArg: 0},
		{Callee: "RUnlock", ArgIndex: -1, Symbol: "runlock", LabelArg: 0},
	}}
}

// Check translates Go source and model-checks it against the property.
func Check(src string, prop *spec.Property, events *minic.EventMap, entry string, opts core.Options) (*pdm.Result, error) {
	prog, err := Translate(src)
	if err != nil {
		return nil, err
	}
	return pdm.Check(prog, prop, events, entry, opts)
}
