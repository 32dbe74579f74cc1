(** A fixed-size pool of worker domains with a FIFO work queue.

    The execution engine ({!Sct_core.Runtime.exec}) is single-domain by
    design: one execution runs entirely on one domain, and the ambient
    runtime slot is domain-local. The pool therefore never migrates a task
    between domains, and tasks must not share mutable state — the drivers
    built on top (see {!Frontier}, {!Drivers}, {!Suite}) only submit
    closures over immutable inputs (program thunks are re-invoked per
    execution, which makes them domain-safe).

    Exceptions raised by a task do not kill the worker: they are captured
    with their backtrace and re-raised by {!await} on the submitting domain.

    Deadlock discipline: tasks never call {!await} — only the submitting
    (main) domain awaits, so workers cannot block on each other. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 1 jobs] worker domains — except that a
    one-job pool spawns no domain at all: its tasks run on the submitting
    domain at {!submit} time, in the same FIFO order a single worker would
    use. A sequential ([--jobs 1]) study therefore pays no domain spawn or
    join, and every stop-the-world minor collection involves the submitting
    domain alone, so sequential runs cost what the single-domain engine
    costs. *)

val size : t -> int
(** Number of workers ([1] for the inline one-job pool). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task. @raise Invalid_argument after {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the task finished; returns its value, or re-raises the
    task's exception (with its original backtrace).
    @raise Cancelled if the task was cancelled before it started. *)

exception Cancelled

val cancel : 'a future -> unit
(** Best-effort cancellation: a task that has not started will never run
    (its [await] raises {!Cancelled}); a running task completes normally.
    Used to stop outstanding shards once a technique hit its stop
    condition. *)

val shutdown : t -> unit
(** Drain the queue, then join all worker domains. Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and always shuts it
    down, even if [f] raises. *)
