(* Every query is at most one pass over the enabled list. The lists handed
   in by the runtime are in ascending tid order, which makes the
   round-robin order a rotation of the list. *)

(* Round-robin distance from [l] to [x] among [n] threads ([Tid.distance]
   without its range assertions, for the per-element loops below). *)
let rr_key ~n l x = if x >= l then x - l else x - l + n

let delays ~n ~last ~enabled t =
  match last with
  | None -> 0
  | Some l ->
      (* the enabled threads strictly closer to [l] than [t] are exactly
         the ones the round-robin walk from [l] to [t] skips *)
      let d = rr_key ~n l t in
      List.fold_left
        (fun acc x -> if rr_key ~n l x < d then acc + 1 else acc)
        0 enabled

let count ~n_at ~steps =
  let _, dc, _ =
    List.fold_left
      (fun (i, dc, last) (enabled, chosen) ->
        let n = n_at i in
        (i + 1, dc + delays ~n ~last ~enabled chosen, Some chosen))
      (0, 0, None) steps
  in
  dc

let rr_order ~n:_ ~last ~enabled =
  match (last, enabled) with
  | None, _ | _, ([] | [ _ ]) -> enabled
  | Some l, _ -> (
      (* the threads before [l] wrap around to the end *)
      let rec split before = function
        | x :: rest when x < l -> split (x :: before) rest
        | from_l -> (before, from_l)
      in
      match split [] enabled with
      | [], _ -> enabled
      | before, from_l -> from_l @ List.rev before)

let deterministic_choice ~n:_ ~last ~enabled =
  match (last, enabled) with
  | _, [] -> None
  | None, t :: _ -> Some t
  | Some l, t :: _ -> (
      (* the head of [rr_order]: the first thread at or after [l], else
         the first one wrapped around *)
      match List.find_opt (fun x -> x >= l) enabled with
      | Some _ as first -> first
      | None -> Some t)
