package vcode

import (
	"fmt"
	"sync"
)

// Sym names a kernel entry point: an index into one process-wide table of
// interned names, so an OpCall holds no pointer and an Insn is plain data
// the garbage collector never scans. Sym 0 is "no entry point".
//
// The table only grows, under one mutex. An id depends on the order in which
// names were first interned, which is not fixed when worlds are built in
// parallel, so no output may depend on an id's value: what is printed or
// checked against a policy is the name (Insn.String, the sandbox verifier).
// Program.Fingerprint hashes the id, but a fingerprint is never printed and
// decides nothing until Program.Equal confirms it.
type Sym uint32

var symTab = struct {
	sync.Mutex
	names []string // names[id]
	ids   map[string]Sym
}{names: []string{""}, ids: map[string]Sym{}}

// Intern returns the id of name, giving it the next one the first time the
// name is seen. The empty name is Sym 0.
func Intern(name string) Sym {
	if name == "" {
		return 0
	}
	symTab.Lock()
	defer symTab.Unlock()
	if id, ok := symTab.ids[name]; ok {
		return id
	}
	id := Sym(len(symTab.names))
	symTab.names = append(symTab.names, name)
	symTab.ids[name] = id
	return id
}

// String returns the name s was interned from: "" for Sym 0, a placeholder
// for an id that no name was given.
func (s Sym) String() string {
	if s == 0 {
		return ""
	}
	symTab.Lock()
	defer symTab.Unlock()
	if int(s) < len(symTab.names) {
		return symTab.names[s]
	}
	return fmt.Sprintf("sym(%d)", uint32(s))
}
