(* Left-looking sparse LU with partial pivoting.

   P A = L U with unit-diagonal L. Columns are processed left to right
   with a dense accumulator: column j of A is scattered into x, the
   updates of the previous columns are applied (only where x is nonzero at
   their pivot rows), then the largest remaining entry is chosen as the
   pivot. L entries keep ORIGINAL row indices; [prow] records which
   original row became the k-th pivot. *)

type t = {
  n : int;
  (* L: strictly-below-pivot entries per column, original row indices *)
  l_rows : int array array;
  l_vals : float array array;
  (* U: entries above the diagonal per column (pivot-position indices),
     plus the diagonal *)
  u_rows : int array array;
  u_vals : float array array;
  u_diag : float array;
  prow : int array;  (* pivot position k -> original row *)
  pos : int array;  (* original row -> pivot position *)
  (* reverse adjacency, for the symbolic phase of the transpose solves:
     [u_radj.(k)] lists the columns j with U[k,j] <> 0, and [l_radj.(p)]
     lists the columns k whose L column touches pivot position p (i.e.
     [prow.(p)] appears in [l_rows.(k)]). Index-only: the numeric passes
     reuse the forward storage. *)
  u_radj : int array array;
  l_radj : int array array;
  (* [l_padj.(k)]: the pivot positions of [l_rows.(k)], the successors of
     [k] in the forward L pass *)
  l_padj : int array array;
  (* solve workspace, allocated once per factorisation so the solves
     allocate nothing: [wk] is all-zero between calls; [mark] holds the
     stamp of the reach that last visited a position, so starting a new
     reach is one increment instead of a clear *)
  wk : float array;
  mark : int array;
  mutable stamp : int;
  stack : int array;
  reach_a : int array;
  reach_b : int array;
}

exception Singular of int

let factor ?(pivot_tol = 1e-11) cols =
  let n = Array.length cols in
  let l_rows = Array.make n [||] and l_vals = Array.make n [||] in
  let u_rows = Array.make n [||] and u_vals = Array.make n [||] in
  let u_diag = Array.make n 0.0 in
  let prow = Array.make n (-1) in
  let pos = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let marked = Array.make n false in
  (* min-heap of the pivot positions whose rows are nonzero in x; the
     solve workspace [reach_a] doubles as its storage *)
  let heap = Array.make n 0 in
  let hsize = ref 0 in
  let push k =
    let c = ref !hsize in
    incr hsize;
    let sifting = ref true in
    while !sifting && !c > 0 do
      let p = (!c - 1) / 2 in
      if heap.(p) > k then begin
        heap.(!c) <- heap.(p);
        c := p
      end
      else sifting := false
    done;
    heap.(!c) <- k
  in
  let pop () =
    let top = heap.(0) in
    decr hsize;
    let last = heap.(!hsize) in
    let size = !hsize in
    let c = ref 0 in
    let sifting = ref true in
    while !sifting do
      let l = (2 * !c) + 1 in
      if l >= size then sifting := false
      else begin
        let m = if l + 1 < size && heap.(l + 1) < heap.(l) then l + 1 else l in
        if heap.(m) < last then begin
          heap.(!c) <- heap.(m);
          c := m
        end
        else sifting := false
      end
    done;
    if size > 0 then heap.(!c) <- last;
    top
  in
  (* first touch of row i in this column; an already-pivoted row joins
     the elimination queue *)
  let touch ntouch i =
    marked.(i) <- true;
    touched.(!ntouch) <- i;
    incr ntouch;
    if pos.(i) >= 0 then push pos.(i)
  in
  for j = 0 to n - 1 do
    (* scatter column j *)
    let ntouch = ref 0 in
    Sparse.iter
      (fun i v ->
        if i >= n then invalid_arg "Lu.factor: row index out of range";
        x.(i) <- v;
        touch ntouch i)
      cols.(j);
    (* eliminate with previous columns in ascending pivot order, visiting
       only those whose pivot row is nonzero here (Gilbert-Peierls): a
       fill row of L column k has position > k or none yet, so the heap
       minimum never moves backwards and the updates run in the same
       order as a sweep over every k < j *)
    let u_r = ref [] and u_v = ref [] in
    while !hsize > 0 do
      let k = pop () in
      let xk = x.(prow.(k)) in
      if xk <> 0.0 then begin
        u_r := k :: !u_r;
        u_v := xk :: !u_v;
        let rows = l_rows.(k) and vals = l_vals.(k) in
        for t = 0 to Array.length rows - 1 do
          let i = rows.(t) in
          if not marked.(i) then touch ntouch i;
          x.(i) <- x.(i) -. (vals.(t) *. xk)
        done
      end
    done;
    (* partial pivot among rows without a position yet *)
    let piv = ref (-1) in
    let best = ref 0.0 in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && abs_float x.(i) > !best then begin
        best := abs_float x.(i);
        piv := i
      end
    done;
    if !piv < 0 || !best < pivot_tol then raise (Singular j);
    let r = !piv in
    prow.(j) <- r;
    pos.(r) <- j;
    u_diag.(j) <- x.(r);
    (* L column: remaining un-pivoted nonzeros, scaled *)
    let l_r = ref [] and l_v = ref [] in
    let d = 1.0 /. x.(r) in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && x.(i) <> 0.0 then begin
        l_r := i :: !l_r;
        l_v := (x.(i) *. d) :: !l_v
      end;
      x.(i) <- 0.0;
      marked.(i) <- false
    done;
    l_rows.(j) <- Array.of_list !l_r;
    l_vals.(j) <- Array.of_list !l_v;
    u_rows.(j) <- Array.of_list !u_r;
    u_vals.(j) <- Array.of_list !u_v
  done;
  (* reverse adjacency (two-pass counting); [pos] is complete here *)
  let cu = Array.make n 0 and cl = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.iter (fun k -> cu.(k) <- cu.(k) + 1) u_rows.(j);
    Array.iter (fun i -> cl.(pos.(i)) <- cl.(pos.(i)) + 1) l_rows.(j)
  done;
  let u_radj = Array.init n (fun k -> Array.make cu.(k) 0) in
  let l_radj = Array.init n (fun k -> Array.make cl.(k) 0) in
  let fu = Array.make n 0 and fl = Array.make n 0 in
  for j = 0 to n - 1 do
    Array.iter
      (fun k ->
        u_radj.(k).(fu.(k)) <- j;
        fu.(k) <- fu.(k) + 1)
      u_rows.(j);
    Array.iter
      (fun i ->
        let p = pos.(i) in
        l_radj.(p).(fl.(p)) <- j;
        fl.(p) <- fl.(p) + 1)
      l_rows.(j)
  done;
  let l_padj = Array.map (Array.map (fun i -> pos.(i))) l_rows in
  {
    n;
    l_rows;
    l_vals;
    u_rows;
    u_vals;
    u_diag;
    prow;
    pos;
    u_radj;
    l_radj;
    l_padj;
    wk = x;  (* all-zero again after the last column *)
    mark = Array.make n 0;
    stamp = 0;
    stack = touched;
    reach_a = heap;  (* empty after the last column *)
    reach_b = Array.make n 0;
  }

let dim t = t.n

type factors = {
  l_index : int array array;
  l_value : float array array;
  u_index : int array array;
  u_value : float array array;
  diag : float array;
  pivot_rows : int array;
}

let factors t =
  {
    l_index = t.l_rows;
    l_value = t.l_vals;
    u_index = t.u_rows;
    u_value = t.u_vals;
    diag = t.u_diag;
    pivot_rows = t.prow;
  }

let nnz t =
  let acc = ref t.n in
  for j = 0 to t.n - 1 do
    acc := !acc + Array.length t.l_rows.(j) + Array.length t.u_rows.(j)
  done;
  !acc

(* A x = b:  L y = P b (forward, over original rows), then U x = y.
   [b] is copied into the workspace first, so [x] may alias it. *)
let solve t b x =
  let n = t.n in
  let w = t.wk in
  Array.blit b 0 w 0 n;
  (* forward: after step k, w.(prow k) holds y_k *)
  for k = 0 to n - 1 do
    let yk = w.(t.prow.(k)) in
    if yk <> 0.0 then begin
      let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
      for i = 0 to Array.length rows - 1 do
        w.(rows.(i)) <- w.(rows.(i)) -. (vals.(i) *. yk)
      done
    end
  done;
  (* gather y by pivot position *)
  for k = 0 to n - 1 do
    x.(k) <- w.(t.prow.(k))
  done;
  Array.fill w 0 n 0.0;
  (* backward: U x = y, U stored by column *)
  for j = n - 1 downto 0 do
    let xj = x.(j) /. t.u_diag.(j) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
      for i = 0 to Array.length rows - 1 do
        x.(rows.(i)) <- x.(rows.(i)) -. (vals.(i) *. xj)
      done
    end
  done

(* A^T x = c:  U^T w = c (forward over positions), then L^T v = w, then
   scatter x.(prow k) = v_k. [x] may alias [c]. *)
let solve_transpose t c x =
  let n = t.n in
  let w = t.wk in
  Array.blit c 0 w 0 n;
  (* U^T is lower triangular in position space: w_j = (c_j - sum_{k<j}
     U[k,j] w_k) / U[j,j]; iterate columns left to right *)
  for j = 0 to n - 1 do
    let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
    let acc = ref w.(j) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. w.(rows.(i)))
    done;
    w.(j) <- !acc /. t.u_diag.(j)
  done;
  (* L^T v = w: v_k = w_k - sum over L column k entries (original row i):
     L[i,k] * v_(pos i); backward since pos i > k always, so every x read
     was written earlier in this pass *)
  for k = n - 1 downto 0 do
    let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
    let acc = ref w.(k) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. x.(rows.(i)))
    done;
    (* scatter immediately into original-row indexing *)
    x.(t.prow.(k)) <- !acc
  done;
  Array.fill w 0 n 0.0

(* ---- hyper-sparse solves (Gilbert-Peierls symbolic reach) ----

   All four triangular passes have dependency edges that are monotone in
   pivot position (L spreads forward, U spreads backward, and vice versa
   for the transposes), so the reach set sorted by position is already a
   topological order: no postorder bookkeeping is needed. Processing the
   reach in position order also performs the floating-point operations in
   exactly the order of the dense solves, so both give bit-identical
   results. Values outside the reach set are exact zeros, so the numeric
   passes only touch reach nodes. *)

(* In-place ascending sort of a.(lo..hi), specialised to ints: insertion
   sort for short runs, median-of-three quicksort above (recursing into
   the shorter side, so the stack stays logarithmic). *)
let rec sort_ints a lo hi =
  if hi - lo < 16 then
    for i = lo + 1 to hi do
      let v = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > v do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- v
    done
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let swap i j =
      let v = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- v
    in
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi) < a.(lo) then swap hi lo;
    if a.(hi) < a.(mid) then swap hi mid;
    let p = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    if !j - lo < hi - !i then begin
      sort_ints a lo !j;
      sort_ints a !i hi
    end
    else begin
      sort_ints a !i hi;
      sort_ints a lo !j
    end
  end

(* Positions reachable through [adj] from the [nseeds] seeds in [seeds]
   (original rows mapped through [pos] when [rows], else positions),
   written ascending into [out]; returns their count. Nodes are marked
   with a fresh stamp, so no per-call clearing is needed. A large reach
   is emitted by a linear sweep over the stamps instead of a sort. *)
let reach t adj ~rows seeds nseeds out =
  t.stamp <- t.stamp + 1;
  let stamp = t.stamp and mark = t.mark and stack = t.stack in
  let sp = ref 0 in
  for s = 0 to nseeds - 1 do
    let k = if rows then t.pos.(seeds.(s)) else seeds.(s) in
    if mark.(k) <> stamp then begin
      mark.(k) <- stamp;
      stack.(!sp) <- k;
      incr sp
    end
  done;
  let count = ref 0 in
  while !sp > 0 do
    decr sp;
    let k = stack.(!sp) in
    out.(!count) <- k;
    incr count;
    let succ = adj.(k) in
    for e = 0 to Array.length succ - 1 do
      let s = succ.(e) in
      if mark.(s) <> stamp then begin
        mark.(s) <- stamp;
        stack.(!sp) <- s;
        incr sp
      end
    done
  done;
  let count = !count in
  if count > t.n / 8 then begin
    let c = ref 0 in
    for k = 0 to t.n - 1 do
      if mark.(k) = stamp then begin
        out.(!c) <- k;
        incr c
      end
    done
  end
  else sort_ints out 0 (count - 1);
  count

(* Sparse-RHS [A x = b]: [b] is read only at the [nb] original rows
   listed in [bi]; the result is dense. *)
let solve_sparse t b bi nb x =
  let w = t.wk in
  (* forward L pass: position k spreads to pos of its L-column rows *)
  let fwd = t.reach_a in
  let nf = reach t t.l_padj ~rows:true bi nb fwd in
  for s = 0 to nb - 1 do
    let i = bi.(s) in
    w.(i) <- b.(i)
  done;
  for idx = 0 to nf - 1 do
    let k = fwd.(idx) in
    let yk = w.(t.prow.(k)) in
    if yk <> 0.0 then begin
      let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
      for i = 0 to Array.length rows - 1 do
        w.(rows.(i)) <- w.(rows.(i)) -. (vals.(i) *. yk)
      done
    end
  done;
  Array.fill x 0 t.n 0.0;
  for idx = 0 to nf - 1 do
    let k = fwd.(idx) in
    let r = t.prow.(k) in
    x.(k) <- w.(r);
    w.(r) <- 0.0
  done;
  (* backward U pass: position j spreads to its above-diagonal rows *)
  let bwd = t.reach_b in
  let nbw = reach t t.u_rows ~rows:false fwd nf bwd in
  for idx = nbw - 1 downto 0 do
    let j = bwd.(idx) in
    let xj = x.(j) /. t.u_diag.(j) in
    x.(j) <- xj;
    if xj <> 0.0 then begin
      let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
      for i = 0 to Array.length rows - 1 do
        x.(rows.(i)) <- x.(rows.(i)) -. (vals.(i) *. xj)
      done
    end
  done

(* Sparse-RHS [A^T x = c]: [c] is read only at the [nc] pivot positions
   listed in [ci]; dense result indexed by original rows, exactly like
   {!solve_transpose}. *)
let solve_transpose_sparse t c ci nc x =
  let w = t.wk in
  (* U^T pass, ascending: nonzero at k spreads to u_radj.(k) *)
  let up = t.reach_a in
  let nu = reach t t.u_radj ~rows:false ci nc up in
  for s = 0 to nc - 1 do
    let j = ci.(s) in
    w.(j) <- c.(j)
  done;
  for idx = 0 to nu - 1 do
    let j = up.(idx) in
    let rows = t.u_rows.(j) and vals = t.u_vals.(j) in
    let acc = ref w.(j) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. w.(rows.(i)))
    done;
    w.(j) <- !acc /. t.u_diag.(j)
  done;
  (* L^T pass, descending: nonzero at p spreads to l_radj.(p) *)
  let lp = t.reach_b in
  let nl = reach t t.l_radj ~rows:false up nu lp in
  Array.fill x 0 t.n 0.0;
  for idx = nl - 1 downto 0 do
    let k = lp.(idx) in
    let rows = t.l_rows.(k) and vals = t.l_vals.(k) in
    let acc = ref w.(k) in
    for i = 0 to Array.length rows - 1 do
      acc := !acc -. (vals.(i) *. x.(rows.(i)))
    done;
    x.(t.prow.(k)) <- !acc
  done;
  for idx = 0 to nu - 1 do
    w.(up.(idx)) <- 0.0
  done
