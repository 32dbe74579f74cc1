(** See the implementation for per-benchmark origin and bug-mechanism
    notes. *)

val entries : Bench.t list
(** The registry entries this suite contributes. *)

val twostage_n_bad : int -> unit -> unit
(** [twostage_n_bad extra] is the [CS.twostage_bad] defect surrounded by
    [extra] noise workers, [extra + 3] threads in all ([CS.twostage_100_bad]
    is [twostage_n_bad 98]): a thread-count knob for scaling checks. *)
