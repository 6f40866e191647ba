(* Test-only references for the lazy Steiner-row bookkeeping: the
   all-pairs LCA sweep, the full sort of the violation list, the sorted
   kNN seeding and the all-pairs length check, written the direct way.
   The differential tests pin {!Lubt_core.Steiner_rows} to them. *)

module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree

(* every violated unmarked pair with positive distance, counted, and the
   [batch] worst of a stable descending sort of the prepended list *)
let scan tree terms ~marked ~delays:d ~threshold ~batch =
  let t = Array.length terms in
  let violations = ref [] in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      if not (marked i j) then begin
        let a, pa = terms.(i) and b, pb = terms.(j) in
        let need = Point.dist pa pb in
        if need > 0.0 then begin
          let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
          let viol = need -. have in
          if viol > threshold then violations := (viol, (i, j)) :: !violations
        end
      end
    done
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare b a) !violations in
  ( List.length !violations,
    List.filteri (fun k _ -> k < batch) sorted |> List.map snd )

(* the k nearest neighbours of each terminal, by a sort of (distance, j)
   tuples, in discovery order *)
let nearest terms k =
  let t = Array.length terms in
  let out = ref [] in
  for i = 0 to t - 1 do
    let _, pi = terms.(i) in
    let dists =
      Array.init t (fun j ->
          let _, pj = terms.(j) in
          (Point.dist pi pj, j))
    in
    Array.sort compare dists;
    let added = ref 0 and idx = ref 0 in
    while !added < k && !idx < t do
      let _, j = dists.(!idx) in
      incr idx;
      if j <> i then begin
        out := (i, j) :: !out;
        incr added
      end
    done
  done;
  List.rev !out

(* the first pair in (i, j) order whose path is short of its distance *)
let first_short_pair tree terms ~delays:d ~eps =
  let t = Array.length terms in
  let found = ref None in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      if !found = None then begin
        let a, pa = terms.(i) and b, pb = terms.(j) in
        let need = Point.dist pa pb in
        let have = d.(a) +. d.(b) -. (2.0 *. d.(Tree.lca tree a b)) in
        if have < need -. eps then found := Some (i, j, have, need)
      end
    done
  done;
  !found
