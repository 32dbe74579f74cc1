(** Delay counting (paper §2, Emmi/Qadeer/Rakamarić 2011).

    Delay bounding is defined w.r.t. the deterministic scheduler that is
    non-preemptive and, when the current thread blocks, picks the next
    enabled thread in creation order round-robin. [delays α t] is the number
    of enabled threads skipped when moving round-robin from [last α] to [t]. *)

val delays : n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t -> int
(** [delays ~n ~last ~enabled t] is
    [|{x : 0 ≤ x < distance(last, t) ∧ (last + x) mod n ∈ enabled}|], i.e.
    the number of enabled threads strictly closer to [last] than [t] in
    round-robin order (one pass over [enabled]). It is the delay-count
    increment of scheduling [t] after a schedule ending in [last], among [n]
    threads (created so far). The first step of a schedule costs no delays
    ([last = None]). *)

val count : n_at:(int -> int) -> steps:(Tid.t list * Tid.t) list -> int
(** [count ~n_at ~steps] folds {!delays} over decision records; [n_at i] is
    the number of threads that exist at decision [i] (0-based), since threads
    are created dynamically. *)

val deterministic_choice :
  n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t option
(** The zero-delay choice: the first enabled thread reached from [last] in
    round-robin order ([last] itself first), i.e. the head of {!rr_order}.
    [None] iff [enabled] is empty. Requires [enabled] in ascending tid
    order, like {!rr_order}; it stops at the first thread at or after
    [last]. *)

val rr_order : n:int -> last:Tid.t option -> enabled:Tid.t list -> Tid.t list
(** [rr_order ~n ~last ~enabled] is [enabled] in the order the
    deterministic scheduler would consider it: by round-robin distance from
    [last] ([last] itself first when enabled; ascending tids when [last] is
    [None]).

    Requires [enabled] in ascending tid order, as the runtime hands it to
    schedulers: the result is then a rotation of [enabled], built in one
    pass (and [enabled] itself, unallocated, when nothing wraps around).

    Position is cost: once [last] is set, the [k]-th element of the result
    costs exactly [k] delays ([delays] counts the enabled threads closer to
    [last]), whether or not [last] itself is enabled. Costs thus never
    decrease along the order, and the children of a decision that fit a
    delay budget [b] are its first [b + 1] elements. *)
