// Package sim implements a deterministic discrete-event simulation kernel
// used as the substrate for the DoCeph reproduction.
//
// The kernel is process-oriented: every simulated thread of control with
// work to do (a Ceph messenger worker, an OSD op thread, a DMA polling loop,
// a benchmark client) is a runtime coroutine (iter.Pull) wrapped in a Proc; a
// thread that only ever waits on one queue is an identity on that queue
// (Queue.ServeTask) and holds no coroutine at all.
// Exactly one Proc executes at any moment; the kernel resumes the owner of
// the next pending wakeup with a coroutine switch and the process switches
// back when it blocks, and pending wakeups are ordered by (virtual time,
// sequence number). Runs are therefore bit-deterministic for a given seed
// regardless of GOMAXPROCS, and safe under the race detector. A continuation
// that only has to wait for one event or one instant and then never blocks
// needs no Proc: it is a Task (Env.After, Env.At), which the kernel runs
// inline when its wakeup fires. A server whose waits all have a task form
// (Env.Delay, Env.WaitThen, CPU.ExecThen, Semaphore.AcquireThen,
// Event.WaitThen, Event.WaitTimeoutThen, Disk.ReadThen, Disk.WriteThen,
// Link.TransferFrameThen, Queue.ServeTask) is a chain of Task steps, with
// the events and event order of its proc form. A Proc makes a call through
// its task form by passing itself as the continuation (Proc.Suspend).
//
// On top of the kernel the package provides the contended resource models the
// experiments are measured against:
//
//   - CPU: a multi-core, FCFS, non-preemptive processor with per-thread cycle
//     accounting and context-switch costs/counters (the basis of the paper's
//     Figure 5, Figure 7 and Table 2).
//   - Disk: a bandwidth+per-IO-latency block device (the PM893 SSD model).
//
// Virtual time is measured in integer nanoseconds (Time/Duration) and never
// depends on the wall clock.
package sim
