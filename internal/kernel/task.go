package kernel

import (
	"paradice/internal/mem"
	"paradice/internal/sim"
)

// Task is a thread of execution: a user application thread, or a kernel
// worker such as a CVD backend thread. Paradice's wrapper-stub mechanism
// (§5.2) lives here: when the CVD backend executes a file operation on
// behalf of a guest VM it marks the task, and the kio memory operations
// consult the mark to redirect to the hypervisor instead of local memory.
type Task struct {
	Proc *Process
	Name string

	// QoS is the task's quality-of-service class, consulted by the CVD
	// frontend's admission control: classes with a configured ring-occupancy
	// limit get EAGAIN instead of queueing once the shared ring is loaded
	// past their limit. Class 0 (the default) is the highest class.
	QoS uint8

	// Marked indicates this task is executing a file operation for a
	// remote guest process (the flag in task_struct the paper describes).
	Marked bool
	// Remote is the hypervisor-API conduit used while Marked.
	Remote RemoteOps

	sp *sim.Proc
}

// RemoteOps is the hypervisor memory-operation API as seen by the wrapper
// stubs in the driver VM kernel. The CVD backend implements it, attaching
// the file operation's grant reference to every request (§5.1).
type RemoteOps interface {
	// CopyToUser copies data into the remote guest process at dst.
	CopyToUser(dst mem.GuestVirt, src []byte) error
	// CopyFromUser copies len(buf) bytes from the remote guest process.
	CopyFromUser(src mem.GuestVirt, buf []byte) error
	// MapPage maps the driver-VM page frame pfn at va in the remote guest
	// process address space.
	MapPage(va mem.GuestVirt, pfn mem.GuestPhys) error
	// UnmapPage removes a previously mapped page at va.
	UnmapPage(va mem.GuestVirt) error
}

// SpawnTask starts fn as a new thread of this process on the simulation
// clock and returns the Task handle (available immediately; fn runs when
// the scheduler first hands it control).
func (p *Process) SpawnTask(name string, fn func(t *Task)) *Task {
	t := &Task{Proc: p, Name: name}
	p.K.Env.Spawn(p.K.Name+"/"+name, func(sp *sim.Proc) {
		t.sp = sp
		fn(t)
	})
	return t
}

// RunTask runs fn as a thread of this process and drives the simulation
// until the calendar drains — the sequential-experiment convenience.
func (p *Process) RunTask(name string, fn func(t *Task)) {
	p.SpawnTask(name, fn)
	p.K.Env.Run()
}

// AdoptTask binds a Task to an already-running simulation process. The CVD
// backend uses this for its worker threads.
func (p *Process) AdoptTask(name string, sp *sim.Proc) *Task {
	return &Task{Proc: p, Name: name, sp: sp}
}

// Sim returns the simulation process executing this task.
func (t *Task) Sim() *sim.Proc { return t.sp }

// Mark flags the task as executing for a remote guest via the given
// hypervisor conduit. The returned function restores the previous state;
// the CVD backend defers it around each forwarded file operation.
func (t *Task) Mark(remote RemoteOps) func() {
	prevM, prevR := t.Marked, t.Remote
	t.Marked, t.Remote = true, remote
	return func() { t.Marked, t.Remote = prevM, prevR }
}
