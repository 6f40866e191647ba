type row = { rlo : float; rup : float; coeffs : Sparse.t }

type col = { lo : float; up : float; mutable obj : float; vname : string }

type t = {
  mutable cols : col array;
  mutable ncols : int;
  mutable rows : row array;
  mutable row_names : string array;
  mutable nrows : int;
}

let create () =
  { cols = [||]; ncols = 0; rows = [||]; row_names = [||]; nrows = 0 }

let grow_cols t =
  if t.ncols = Array.length t.cols then begin
    let ncap = max 16 (2 * t.ncols) in
    let fresh = { lo = 0.0; up = 0.0; obj = 0.0; vname = "" } in
    let arr = Array.make ncap fresh in
    Array.blit t.cols 0 arr 0 t.ncols;
    t.cols <- arr
  end

let grow_rows t =
  if t.nrows = Array.length t.rows then begin
    let ncap = max 16 (2 * t.nrows) in
    let fresh = { rlo = 0.0; rup = 0.0; coeffs = Sparse.empty } in
    let arr = Array.make ncap fresh in
    Array.blit t.rows 0 arr 0 t.nrows;
    t.rows <- arr;
    let names = Array.make ncap "" in
    Array.blit t.row_names 0 names 0 t.nrows;
    t.row_names <- names
  end

(* Bounds may be infinite only on their own side; NaN fails [lo <= up]. *)
let check_bounds what lo up =
  if not (lo <= up) then invalid_arg (what ^ ": lo > up");
  if lo = infinity then invalid_arg (what ^ ": lower bound is +inf");
  if up = neg_infinity then invalid_arg (what ^ ": upper bound is -inf")

let check_finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "%s: non-finite value %g" what v)

let add_var ?(lo = 0.0) ?(up = infinity) ?(obj = 0.0) ?(name = "") t =
  check_bounds "Problem.add_var" lo up;
  check_finite "Problem.add_var: objective" obj;
  grow_cols t;
  let j = t.ncols in
  t.cols.(j) <- { lo; up; obj; vname = name };
  t.ncols <- j + 1;
  j

let add_row ?(name = "") t ~lo ~up coeffs =
  check_bounds "Problem.add_row" lo up;
  List.iter (fun (_, a) -> check_finite "Problem.add_row: coefficient" a) coeffs;
  let sp = Sparse.of_assoc coeffs in
  if Sparse.max_index sp >= t.ncols then
    invalid_arg "Problem.add_row: coefficient refers to an unknown variable";
  grow_rows t;
  let i = t.nrows in
  t.rows.(i) <- { rlo = lo; rup = up; coeffs = sp };
  t.row_names.(i) <- name;
  t.nrows <- i + 1;
  i

let set_obj t j c =
  assert (j >= 0 && j < t.ncols);
  check_finite "Problem.set_obj" c;
  t.cols.(j).obj <- c

let nvars t = t.ncols

let nrows t = t.nrows

let var_lo t j = t.cols.(j).lo

let var_up t j = t.cols.(j).up

let obj_coeff t j = t.cols.(j).obj

let row t i =
  assert (i >= 0 && i < t.nrows);
  t.rows.(i)

let var_name t j =
  let n = t.cols.(j).vname in
  if n = "" then Printf.sprintf "x%d" j else n

let row_name t i =
  let n = t.row_names.(i) in
  if n = "" then Printf.sprintf "r%d" i else n

let objective_value t x =
  let acc = ref 0.0 in
  for j = 0 to t.ncols - 1 do
    acc := !acc +. (t.cols.(j).obj *. x.(j))
  done;
  !acc

let row_activity t i x = Sparse.dot_dense (row t i).coeffs x

let is_feasible ?(tol = 1e-6) t x =
  let ok = ref true in
  for j = 0 to t.ncols - 1 do
    if x.(j) < t.cols.(j).lo -. tol || x.(j) > t.cols.(j).up +. tol then
      ok := false
  done;
  for i = 0 to t.nrows - 1 do
    let a = row_activity t i x in
    let r = t.rows.(i) in
    if a < r.rlo -. tol || a > r.rup +. tol then ok := false
  done;
  !ok

let pp fmt t =
  Format.fprintf fmt "minimize";
  for j = 0 to t.ncols - 1 do
    let c = t.cols.(j).obj in
    if c <> 0.0 then Format.fprintf fmt " %+g %s" c (var_name t j)
  done;
  Format.fprintf fmt "@\nsubject to@\n";
  for i = 0 to t.nrows - 1 do
    let r = t.rows.(i) in
    Format.fprintf fmt "  %s: %g <=" (row_name t i) r.rlo;
    Sparse.iter (fun j v -> Format.fprintf fmt " %+g %s" v (var_name t j)) r.coeffs;
    Format.fprintf fmt " <= %g@\n" r.rup
  done;
  Format.fprintf fmt "bounds@\n";
  for j = 0 to t.ncols - 1 do
    Format.fprintf fmt "  %g <= %s <= %g@\n" t.cols.(j).lo (var_name t j)
      t.cols.(j).up
  done
