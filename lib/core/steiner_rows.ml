module Point = Lubt_geom.Point
module Tree = Lubt_topo.Tree

(* Terminals are kept twice: by terminal index (the order the callers
   number pairs in) and by preorder rank of their tree nodes, where every
   subtree owns a contiguous rank range. A pair's LCA is then known from
   the enumeration itself: the pairs whose LCA is [v] are v's own
   terminals against the rest of its range, plus each child's range
   against the ranges of the later children. *)
type t = {
  t : int;
  px : float array;  (* coordinates by terminal index *)
  py : float array;
  (* by preorder rank *)
  rx : float array;
  ry : float array;
  rd : float array;  (* delay of the terminal's node, refreshed per scan *)
  rterm : int array;  (* rank -> terminal index *)
  rank : int array;  (* terminal index -> rank *)
  rnode : int array;  (* rank -> tree node *)
  (* rectangles of rank pairs with a common LCA [b_node]: r in
     [b_alo, b_ahi) against s in [b_blo, b_bhi), b_blo >= b_ahi *)
  b_node : int array;
  b_alo : int array;
  b_ahi : int array;
  b_blo : int array;
  b_bhi : int array;
  (* materialised pairs, bit [r*t + q] for ranks r < q: a scan row reads
     consecutive bits *)
  marks : Bytes.t;
}

let create tree terms =
  let t = Array.length terms in
  let n = Tree.num_nodes tree in
  let term_at = Array.make n (-1) in
  Array.iteri
    (fun k (node, _) ->
      if term_at.(node) >= 0 then invalid_arg "Steiner_rows: shared node";
      term_at.(node) <- k)
    terms;
  let pre = Tree.preorder tree in
  let lo = Array.make n 0 and cnt = Array.make n 0 in
  let rterm = Array.make t 0 and rnode = Array.make t 0 in
  let next = ref 0 in
  Array.iter
    (fun v ->
      lo.(v) <- !next;
      if term_at.(v) >= 0 then begin
        rterm.(!next) <- term_at.(v);
        rnode.(!next) <- v;
        cnt.(v) <- 1;
        incr next
      end)
    pre;
  (* children follow their parent in preorder *)
  for idx = n - 1 downto 1 do
    let v = pre.(idx) in
    let p = Tree.parent tree v in
    cnt.(p) <- cnt.(p) + cnt.(v)
  done;
  let blocks = ref [] in
  let block v alo ahi blo bhi =
    if alo < ahi && blo < bhi then blocks := (v, alo, ahi, blo, bhi) :: !blocks
  in
  Array.iter
    (fun v ->
      let hi = lo.(v) + cnt.(v) in
      if term_at.(v) >= 0 then block v lo.(v) (lo.(v) + 1) (lo.(v) + 1) hi;
      List.iter
        (fun c -> block v lo.(c) (lo.(c) + cnt.(c)) (lo.(c) + cnt.(c)) hi)
        (Tree.children tree v))
    pre;
  let blocks = Array.of_list (List.rev !blocks) in
  let field f = Array.map f blocks in
  let px = Array.map (fun (_, (p : Point.t)) -> p.Point.x) terms in
  let py = Array.map (fun (_, (p : Point.t)) -> p.Point.y) terms in
  {
    t;
    px;
    py;
    rx = Array.map (fun k -> px.(k)) rterm;
    ry = Array.map (fun k -> py.(k)) rterm;
    rd = Array.make t 0.0;
    rterm;
    rank =
      (let rank = Array.make t 0 in
       Array.iteri (fun r k -> rank.(k) <- r) rterm;
       rank);
    rnode;
    b_node = field (fun (v, _, _, _, _) -> v);
    b_alo = field (fun (_, a, _, _, _) -> a);
    b_ahi = field (fun (_, _, a, _, _) -> a);
    b_blo = field (fun (_, _, _, b, _) -> b);
    b_bhi = field (fun (_, _, _, _, b) -> b);
    marks = Bytes.make (((t * t) + 7) / 8) '\000';
  }

let size s = s.t

let key s i j = if i < j then (i * s.t) + j else (j * s.t) + i

let marked_bit s b =
  Char.code (Bytes.unsafe_get s.marks (b lsr 3)) land (1 lsl (b land 7)) <> 0

let mark s i j =
  let b = key s s.rank.(i) s.rank.(j) in
  let byte = b lsr 3 in
  Bytes.set s.marks byte
    (Char.unsafe_chr (Char.code (Bytes.get s.marks byte) lor (1 lsl (b land 7))))

let marked s i j = marked_bit s (key s s.rank.(i) s.rank.(j))

(* The k nearest terminals of each terminal, ranked by (distance, index)
   — the order a sort of (distance, j) tuples gives — kept in a k-slot
   insertion buffer. Scanning j upwards, an equal distance never displaces
   an entry, so ties stay in index order. *)
let nearest s k f =
  let t = s.t in
  let cap = max 0 (min k (t - 1)) in
  let bd = Array.make cap 0.0 and bj = Array.make cap 0 in
  (* nothing to select without a slot: skip the distance sweep *)
  let last = if cap = 0 then -1 else t - 1 in
  for i = 0 to last do
    let xi = s.px.(i) and yi = s.py.(i) in
    let filled = ref 0 in
    for j = 0 to t - 1 do
      if j <> i then begin
        let d = abs_float (xi -. s.px.(j)) +. abs_float (yi -. s.py.(j)) in
        if !filled < cap || d < bd.(cap - 1) then begin
          let p = ref (if !filled < cap then !filled else cap - 1) in
          while !p > 0 && bd.(!p - 1) > d do
            bd.(!p) <- bd.(!p - 1);
            bj.(!p) <- bj.(!p - 1);
            decr p
          done;
          bd.(!p) <- d;
          bj.(!p) <- j;
          if !filled < cap then incr filled
        end
      end
    done;
    for q = 0 to !filled - 1 do
      f i bj.(q)
    done
  done

type scan = { found : int; top : (int * int) array; cut : bool }

(* pairs between deadline polls: a few hundred microseconds of scan *)
let poll_every = 1 lsl 16

(* Bounded min-heap of the [cap] best violations, worst at the root.
   Rank: larger violation first, and on equal violation the larger pair
   key first. Ties are broken by key, never by visiting order, so the
   batch does not depend on the enumeration order; this is the order of
   a stable descending sort of the violations listed by descending key. *)
let worse (va : float) (ka : int) vb kb = va < vb || (va = vb && ka < kb)

let load_delays s delays =
  for r = 0 to s.t - 1 do
    s.rd.(r) <- delays.(s.rnode.(r))
  done

let scan s ~delays ~threshold ~batch ?expired () =
  let t = s.t in
  let rx = s.rx and ry = s.ry and rd = s.rd and rterm = s.rterm in
  load_delays s delays;
  let cap = max 0 (min batch (t * (t - 1) / 2)) in
  let hv = Array.make cap 0.0 and hk = Array.make cap 0 in
  let size = ref 0 in
  let sift_down v k =
    let c = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !c) + 1 in
      if l >= !size then sifting := false
      else begin
        let m =
          if l + 1 < !size && worse hv.(l + 1) hk.(l + 1) hv.(l) hk.(l) then
            l + 1
          else l
        in
        if worse hv.(m) hk.(m) v k then begin
          hv.(!c) <- hv.(m);
          hk.(!c) <- hk.(m);
          c := m
        end
        else sifting := false
      end
    done;
    hv.(!c) <- v;
    hk.(!c) <- k
  in
  (* callers test for a free slot or a worse root first *)
  let offer v k =
    if !size < cap then begin
      let c = ref !size in
      incr size;
      let sifting = ref true in
      while !sifting && !c > 0 do
        let p = (!c - 1) / 2 in
        if worse v k hv.(p) hk.(p) then begin
          hv.(!c) <- hv.(p);
          hk.(!c) <- hk.(p);
          c := p
        end
        else sifting := false
      done;
      hv.(!c) <- v;
      hk.(!c) <- k
    end
    else sift_down v k
  in
  let found = ref 0 in
  let budget = ref poll_every in
  let cut = ref false in
  (try
     for b = 0 to Array.length s.b_node - 1 do
       let dv2 = 2.0 *. delays.(s.b_node.(b)) in
       let blo = s.b_blo.(b) and bhi = s.b_bhi.(b) in
       for r = s.b_alo.(b) to s.b_ahi.(b) - 1 do
         let xa = rx.(r) and ya = ry.(r) and da = rd.(r) and ia = rterm.(r) in
         let row = r * t in
         for q = blo to bhi - 1 do
           let need = abs_float (xa -. rx.(q)) +. abs_float (ya -. ry.(q)) in
           if need > 0.0 then begin
             let viol = need -. (da +. rd.(q) -. dv2) in
             if viol > threshold then begin
               if not (marked_bit s (row + q)) then begin
                 let k = key s ia rterm.(q) in
                 incr found;
                 if !size < cap || (cap > 0 && worse hv.(0) hk.(0) viol k)
                 then offer viol k
               end
             end
           end
         done;
         match expired with
         | Some expired ->
           budget := !budget - (bhi - blo);
           if !budget <= 0 then begin
             budget := poll_every;
             if expired () then begin
               cut := true;
               raise Exit
             end
           end
         | None -> ()
       done
     done
   with Exit -> ());
  (* drain worst-first into the back of the batch *)
  let n = !size in
  let top = Array.make n (0, 0) in
  for p = n - 1 downto 0 do
    let k = hk.(0) in
    top.(p) <- (k / t, k mod t);
    decr size;
    if !size > 0 then sift_down hv.(!size) hk.(!size)
  done;
  { found = !found; top; cut = !cut }

(* smallest pair key with [have < need - eps], scanning every pair *)
let first_short_pair s ~delays ~eps =
  let t = s.t in
  let rx = s.rx and ry = s.ry and rd = s.rd and rterm = s.rterm in
  load_delays s delays;
  let best = ref max_int and have_b = ref 0.0 and need_b = ref 0.0 in
  for b = 0 to Array.length s.b_node - 1 do
    let dv2 = 2.0 *. delays.(s.b_node.(b)) in
    let blo = s.b_blo.(b) and bhi = s.b_bhi.(b) in
    for r = s.b_alo.(b) to s.b_ahi.(b) - 1 do
      for q = blo to bhi - 1 do
        let need = abs_float (rx.(r) -. rx.(q)) +. abs_float (ry.(r) -. ry.(q)) in
        let have = rd.(r) +. rd.(q) -. dv2 in
        if have < need -. eps then begin
          let k = key s rterm.(r) rterm.(q) in
          if k < !best then begin
            best := k;
            have_b := have;
            need_b := need
          end
        end
      done
    done
  done;
  if !best = max_int then None
  else Some (!best / t, !best mod t, !have_b, !need_b)
