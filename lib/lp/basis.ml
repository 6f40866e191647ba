(* B^-1 = G_k ... G_1 (diag(LU, I))^-1 where each G is either an eta
   transformation from a pivot (r, w) — identity except for column r,
   with E[r][r] = 1/w_r and E[i][r] = -w_i / w_r — or a border extension
   from an appended row: for B' = [[B, 0]; [bc^T, -1]] the inverse is
   [[B^-1, 0]; [bc^T B^-1, -1]], i.e. G computes v_bd <- bc . v - v_bd
   after the inner operators have been applied to the head. *)

type counters = {
  mutable ftrans : int;
  mutable btrans : int;
  mutable updates : int;
  mutable factorisations : int;
  mutable hyper_ftrans : int;
  mutable hyper_btrans : int;
  mutable extensions : int;
}

let fresh_counters () =
  {
    ftrans = 0;
    btrans = 0;
    updates = 0;
    factorisations = 0;
    hyper_ftrans = 0;
    hyper_btrans = 0;
    extensions = 0;
  }

exception Zero_pivot of { row : int; magnitude : float }

type op =
  | Eta of { r : int; wr : float; nz_idx : int array; nz_val : float array }
      (* off-pivot nonzeros of the pivot column (index <> r) *)
  | Border of { bd : int; bc : Sparse.t }
      (* appended row [bd]; [bc] is the new row over basis positions < bd *)

type t = {
  lu : Lu.t;
  mutable trail : op array;  (* oldest first; [len] live entries *)
  mutable len : int;
  mutable count : int;  (* etas in the trail *)
  mutable extra : int;  (* borders in the trail *)
  mutable tnnz : int;  (* nonzeros stored across the trail *)
  nz : int array;  (* nonzero list of an LU-prefix right-hand side *)
  ops : counters;
}

let create ?counters ?pivot_tol cols =
  let ops = match counters with Some c -> c | None -> fresh_counters () in
  ops.factorisations <- ops.factorisations + 1;
  let lu = Lu.factor ?pivot_tol cols in
  {
    lu;
    trail = [||];
    len = 0;
    count = 0;
    extra = 0;
    tnnz = 0;
    nz = Array.make (Lu.dim lu) 0;
    ops;
  }

let dim t = Lu.dim t.lu + t.extra

let eta_count t = t.count

let trail_nnz t = t.tnnz

let lu_nnz t = Lu.nnz t.lu

let push_op t op =
  if t.len = Array.length t.trail then begin
    let grown = Array.make (max 8 (2 * t.len)) op in
    Array.blit t.trail 0 grown 0 t.len;
    t.trail <- grown
  end;
  t.trail.(t.len) <- op;
  t.len <- t.len + 1

(* A right-hand side whose LU-prefix has [k] nonzeros takes the
   hyper-sparse triangular kernels below this density; unit vectors
   (k <= 1) always qualify so the hyper path is exercised even on tiny
   bases. *)
let density_cutover = 0.2

let hyper_ok n k = k <= 1 || float_of_int k <= density_cutover *. float_of_int n

(* (G v), oldest operator already applied to v. *)
let apply_forward v op =
  match op with
  | Eta e ->
      let vr = v.(e.r) /. e.wr in
      if v.(e.r) <> 0.0 then
        for i = 0 to Array.length e.nz_idx - 1 do
          let j = e.nz_idx.(i) in
          v.(j) <- v.(j) -. (e.nz_val.(i) *. vr)
        done;
      v.(e.r) <- vr
  | Border b -> v.(b.bd) <- Sparse.dot_dense b.bc v -. v.(b.bd)

(* (G^T c): eta adjoints touch only component r; border adjoints negate
   the border component and scatter it into the head. *)
let apply_adjoint v op =
  match op with
  | Eta e ->
      let s = ref 0.0 in
      for i = 0 to Array.length e.nz_idx - 1 do
        s := !s +. (e.nz_val.(i) *. v.(e.nz_idx.(i)))
      done;
      v.(e.r) <- (v.(e.r) -. !s) /. e.wr
  | Border b ->
      let vd = v.(b.bd) in
      v.(b.bd) <- -.vd;
      if vd <> 0.0 then Sparse.add_scaled_into v vd b.bc

(* Lists the nonzeros of [v]'s LU prefix in [t.nz]; returns their count. *)
let prefix_nonzeros t v =
  let k = ref 0 in
  for i = 0 to Lu.dim t.lu - 1 do
    if v.(i) <> 0.0 then begin
      t.nz.(!k) <- i;
      incr k
    end
  done;
  !k

(* In-place LU solve of [v]'s prefix whose nonzeros [prefix_nonzeros]
   (or the caller) listed in [t.nz.(0 .. k-1)]. *)
let lu_ftran t v k =
  if hyper_ok (Lu.dim t.lu) k then begin
    t.ops.hyper_ftrans <- t.ops.hyper_ftrans + 1;
    Lu.solve_sparse t.lu v t.nz k v
  end
  else Lu.solve t.lu v v

let trail_forward t x =
  for i = 0 to t.len - 1 do
    apply_forward x t.trail.(i)
  done

(* The LU solve leaves the border tail of [v] as it was: the inner
   (block-diagonal) operator is the identity there. *)
let ftran t v =
  t.ops.ftrans <- t.ops.ftrans + 1;
  lu_ftran t v (prefix_nonzeros t v);
  trail_forward t v

let ftran_sparse t sp x =
  t.ops.ftrans <- t.ops.ftrans + 1;
  let n = Lu.dim t.lu in
  Array.fill x n t.extra 0.0;
  let nz = t.nz in
  let k =
    Sparse.fold
      (fun i v k ->
        x.(i) <- v;
        if i < n then begin
          nz.(k) <- i;
          k + 1
        end
        else k)
      sp 0
  in
  (* the dense kernel reads the whole prefix: clear it around the head *)
  if not (hyper_ok n k) then begin
    Array.fill x 0 n 0.0;
    Sparse.iter (fun i v -> if i < n then x.(i) <- v) sp
  end;
  lu_ftran t x k;
  trail_forward t x

(* Adjoints newest first, then the transposed LU solve of the prefix; the
   sparsity decision happens after the trail (it can fill in or cancel
   entries). *)
let btran t v =
  t.ops.btrans <- t.ops.btrans + 1;
  for i = t.len - 1 downto 0 do
    apply_adjoint v t.trail.(i)
  done;
  let k = prefix_nonzeros t v in
  if hyper_ok (Lu.dim t.lu) k then begin
    t.ops.hyper_btrans <- t.ops.hyper_btrans + 1;
    Lu.solve_transpose_sparse t.lu v t.nz k v
  end
  else Lu.solve_transpose t.lu v v

let btran_unit t r x =
  Array.fill x 0 (dim t) 0.0;
  x.(r) <- 1.0;
  btran t x

let update ?(tol = 1e-12) t r w =
  if abs_float w.(r) < tol then
    raise (Zero_pivot { row = r; magnitude = abs_float w.(r) });
  t.ops.updates <- t.ops.updates + 1;
  let d = dim t in
  let nz = ref 0 in
  for i = 0 to d - 1 do
    if i <> r && w.(i) <> 0.0 then incr nz
  done;
  let nz_idx = Array.make !nz 0 and nz_val = Array.make !nz 0.0 in
  let p = ref 0 in
  for i = 0 to d - 1 do
    let x = w.(i) in
    if i <> r && x <> 0.0 then begin
      nz_idx.(!p) <- i;
      nz_val.(!p) <- x;
      incr p
    end
  done;
  push_op t (Eta { r; wr = w.(r); nz_idx; nz_val });
  t.count <- t.count + 1;
  t.tnnz <- t.tnnz + !nz + 1

let append_row t bc =
  if Sparse.max_index bc >= dim t then
    invalid_arg "Basis.append_row: row index out of range";
  t.ops.extensions <- t.ops.extensions + 1;
  push_op t (Border { bd = dim t; bc });
  t.extra <- t.extra + 1;
  t.tnnz <- t.tnnz + Sparse.nnz bc + 1
