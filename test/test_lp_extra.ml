(* Tests for the LP extras: presolve reductions and the LP-format
   writer/reader. *)

module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Presolve = Lubt_lp.Presolve
module Lp_format = Lubt_lp.Lp_format
module Status = Lubt_lp.Status
module Sparse = Lubt_lp.Sparse
module Prng = Lubt_util.Prng

let check_float = Alcotest.(check (float 1e-6))

(* ------------------------------------------------------------------ *)
(* Presolve                                                             *)
(* ------------------------------------------------------------------ *)

let test_fixed_variable_substitution () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:2.0 ~up:2.0 ~obj:3.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:5.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  match Presolve.run p with
  | Presolve.Infeasible_detected msg -> Alcotest.fail msg
  | Presolve.Reduced t ->
    Alcotest.(check int) "one variable left" 1 (Presolve.reduced_vars t);
    let sol = Presolve.solve p in
    Alcotest.(check bool) "optimal" true (sol.Status.status = Status.Optimal);
    (* x fixed at 2, row needs y >= 3: objective 3*2 + 3 = 9 *)
    check_float "objective" 9.0 sol.Status.objective;
    check_float "x reinstated" 2.0 sol.Status.primal.(x);
    check_float "y" 3.0 sol.Status.primal.(y)

let test_singleton_row_to_bound () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:4.0 ~up:10.0 [ (x, 2.0) ]);
  match Presolve.run p with
  | Presolve.Infeasible_detected msg -> Alcotest.fail msg
  | Presolve.Reduced t ->
    Alcotest.(check int) "row folded away" 0 (Presolve.reduced_rows t);
    let sol = Presolve.solve p in
    check_float "x at tightened lower bound" 2.0 sol.Status.primal.(x)

let test_duplicate_rows_merge () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 p in
  let y = Problem.add_var ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:1.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:3.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:8.0 [ (x, 1.0); (y, 1.0) ]);
  match Presolve.run p with
  | Presolve.Infeasible_detected msg -> Alcotest.fail msg
  | Presolve.Reduced t ->
    Alcotest.(check int) "rows merged" 1 (Presolve.reduced_rows t);
    let sol = Presolve.solve p in
    check_float "objective" 3.0 sol.Status.objective

let test_presolve_detects_infeasible () =
  let cases =
    [
      (fun p ->
        (* crossed bounds via two singleton rows *)
        let x = Problem.add_var p in
        ignore (Problem.add_row p ~lo:5.0 ~up:infinity [ (x, 1.0) ]);
        ignore (Problem.add_row p ~lo:neg_infinity ~up:2.0 [ (x, 1.0) ]));
      (fun p ->
        (* duplicate rows with disjoint bounds *)
        let x = Problem.add_var p in
        let y = Problem.add_var p in
        ignore (Problem.add_row p ~lo:1.0 ~up:2.0 [ (x, 1.0); (y, 1.0) ]);
        ignore (Problem.add_row p ~lo:5.0 ~up:6.0 [ (x, 1.0); (y, 1.0) ]));
      (fun p ->
        (* empty row after substituting a fixed variable *)
        let x = Problem.add_var ~lo:1.0 ~up:1.0 p in
        ignore (Problem.add_row p ~lo:5.0 ~up:6.0 [ (x, 1.0) ]));
    ]
  in
  List.iter
    (fun build ->
      let p = Problem.create () in
      build p;
      match Presolve.run p with
      | Presolve.Infeasible_detected _ -> ()
      | Presolve.Reduced t ->
        (* presolve may legitimately defer to the solver *)
        let sol = Solver.solve (Presolve.problem t) in
        Alcotest.(check bool) "solver confirms infeasible" true
          (sol.Status.status = Status.Infeasible))
    cases

let test_all_variables_fixed () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:1.0 ~up:1.0 ~obj:2.0 p in
  let y = Problem.add_var ~lo:3.0 ~up:3.0 ~obj:1.0 p in
  ignore (Problem.add_row p ~lo:0.0 ~up:10.0 [ (x, 1.0); (y, 1.0) ]);
  let sol = Presolve.solve p in
  Alcotest.(check bool) "optimal" true (sol.Status.status = Status.Optimal);
  check_float "objective" 5.0 sol.Status.objective;
  (* and an infeasible variant *)
  let q = Problem.create () in
  let a = Problem.add_var ~lo:1.0 ~up:1.0 q in
  ignore (Problem.add_row q ~lo:5.0 ~up:10.0 [ (a, 1.0) ]);
  let sol2 = Presolve.solve q in
  Alcotest.(check bool) "infeasible" true (sol2.Status.status = Status.Infeasible)

(* randomised: presolve+solve agrees with direct solve.  Shared
   generator (lp_gen.ml); [fixed_vars] adds the fixed-variable kind that
   exercises substitution, with the original draw sequence. *)
let random_problem rng = Lp_gen.random_problem ~fixed_vars:true rng

let test_presolve_random_agreement () =
  let rng = Prng.create 606 in
  for id = 1 to 300 do
    let p = random_problem rng in
    let direct = Solver.solve p in
    let pre = Presolve.solve p in
    (match (direct.Status.status, pre.Status.status) with
    | Status.Optimal, Status.Optimal ->
      if
        not
          (Lubt_util.Stats.approx_eq ~eps:1e-5 direct.Status.objective
             pre.Status.objective)
      then
        Alcotest.failf "case %d: direct %.9g vs presolved %.9g" id
          direct.Status.objective pre.Status.objective;
      if not (Problem.is_feasible ~tol:1e-5 p pre.Status.primal) then
        Alcotest.failf "case %d: postsolved point infeasible" id
    | a, b when a = b -> ()
    | Status.Unbounded, Status.Optimal | Status.Optimal, Status.Unbounded ->
      Alcotest.failf "case %d: optimal/unbounded mismatch" id
    | a, b ->
      Alcotest.failf "case %d: status mismatch %s vs %s" id (Status.to_string a)
        (Status.to_string b))
  done

(* ------------------------------------------------------------------ *)
(* LP format                                                            *)
(* ------------------------------------------------------------------ *)

let test_lp_format_writer_shape () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:1.0 ~name:"x" p in
  let y = Problem.add_var ~lo:neg_infinity ~up:infinity ~obj:(-2.0) ~name:"y" p in
  ignore (Problem.add_row ~name:"r1" p ~lo:1.0 ~up:infinity [ (x, 1.0); (y, 3.0) ]);
  ignore (Problem.add_row ~name:"r2" p ~lo:0.0 ~up:5.0 [ (x, 2.0) ]);
  let s = Lp_format.to_string p in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains s needle))
    (* one-sided r1 keeps its name; range row r2 splits into _l/_u *)
    [ "Minimize"; "Subject To"; "Bounds"; "End"; "y free"; "r1:"; "r2_l:"; "r2_u:" ]

let test_lp_format_roundtrip () =
  let rng = Prng.create 7007 in
  for id = 1 to 200 do
    let p = random_problem rng in
    match Lp_format.of_string (Lp_format.to_string p) with
    | Error msg -> Alcotest.failf "case %d: parse error: %s" id msg
    | Ok q ->
      let a = Solver.solve p and b = Solver.solve q in
      (match (a.Status.status, b.Status.status) with
      | Status.Optimal, Status.Optimal ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-5 a.Status.objective b.Status.objective)
        then
          Alcotest.failf "case %d: objective %.9g vs %.9g after roundtrip" id
            a.Status.objective b.Status.objective
      | sa, sb when sa = sb -> ()
      | sa, sb ->
        Alcotest.failf "case %d: status %s vs %s after roundtrip" id
          (Status.to_string sa) (Status.to_string sb))
  done

let test_lp_format_reader_errors () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (text, why, where) ->
      match Lp_format.of_string text with
      | Error msg ->
        if not (contains msg where) then
          Alcotest.failf "%s: error %S does not locate %S" why msg where
      | Ok _ -> Alcotest.failf "expected parse failure: %s" why)
    [
      ("x + y <= 3", "content before section", "line 1");
      ("Minimize\n obj: x\nSubject To\n c: x ? 3\nEnd", "bad operator", "line 4");
      ("Minimize\n obj: x\nSubject To\n c: x <=\nEnd", "missing rhs", "line 4");
      ( "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n 3 <= x <= 2\nEnd",
        "crossed bounds",
        "line 6" );
      ( "Minimize\n obj: x\nSubject To\n c: x @ 3 >= 1\nEnd",
        "bad token",
        "line 4" );
      (* numerals that overflow to infinity *)
      ( "Minimize\n obj: 1e400 x\nSubject To\n c: x >= 1\nEnd",
        "infinite objective coefficient",
        "line 2" );
      ( "Minimize\n obj: x\nSubject To\n c: 1e400 x >= 1\nEnd",
        "infinite constraint coefficient",
        "line 4" );
      ( "Minimize\n obj: x\nSubject To\n c: x >= 1e400\nEnd",
        "infinite right-hand side",
        "line 4" );
      ( "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n x >= 1e400\nEnd",
        "infinite lower bound",
        "line 6" );
    ]

(* Structural equality up to variable order (LP format does not encode
   declaration order): the same named variables with the same
   bounds/objective, and the same rows in order with coefficients matched
   by variable name. Exact float comparison is intended — the writer uses
   %.17g, which round-trips IEEE doubles bit-exactly. *)
let assert_same_problem id p q =
  if Problem.nvars p <> Problem.nvars q then
    Alcotest.failf "%s: nvars %d vs %d" id (Problem.nvars p) (Problem.nvars q);
  if Problem.nrows p <> Problem.nrows q then
    Alcotest.failf "%s: nrows %d vs %d" id (Problem.nrows p) (Problem.nrows q);
  let index = Hashtbl.create 16 in
  for j = 0 to Problem.nvars q - 1 do
    Hashtbl.replace index (Problem.var_name q j) j
  done;
  for j = 0 to Problem.nvars p - 1 do
    let name = Problem.var_name p j in
    match Hashtbl.find_opt index name with
    | None -> Alcotest.failf "%s: variable %s lost in round-trip" id name
    | Some j' ->
      let chk what a b =
        if a <> b then
          Alcotest.failf "%s: %s of %s: %.17g vs %.17g" id what name a b
      in
      chk "lower bound" (Problem.var_lo p j) (Problem.var_lo q j');
      chk "upper bound" (Problem.var_up p j) (Problem.var_up q j');
      chk "objective" (Problem.obj_coeff p j) (Problem.obj_coeff q j')
  done;
  let named prob (r : Problem.row) =
    List.sort compare
      (List.map
         (fun (j, a) -> (Problem.var_name prob j, a))
         (Sparse.to_assoc r.Problem.coeffs))
  in
  for i = 0 to Problem.nrows p - 1 do
    let rp = Problem.row p i and rq = Problem.row q i in
    if rp.Problem.rlo <> rq.Problem.rlo || rp.Problem.rup <> rq.Problem.rup then
      Alcotest.failf "%s: row %d bounds [%g, %g] vs [%g, %g]" id i
        rp.Problem.rlo rp.Problem.rup rq.Problem.rlo rq.Problem.rup;
    if named p rp <> named q rq then
      Alcotest.failf "%s: row %d coefficients differ" id i
  done

let test_lp_format_structural_roundtrip () =
  let p = Problem.create () in
  let x = Problem.add_var ~obj:2.5e-7 ~name:"x" p in
  (* a free variable outside the objective and every constraint: only its
     Bounds line mentions it, and it used to be dropped by the reader *)
  let _y = Problem.add_var ~lo:neg_infinity ~up:infinity ~name:"y_free" p in
  let z = Problem.add_var ~lo:neg_infinity ~up:3.0 ~name:"z" p in
  let w = Problem.add_var ~lo:(-4.5) ~up:(-4.5) ~name:"w" p in
  let _v = Problem.add_var ~lo:1.0e12 ~up:infinity ~name:"v" p in
  ignore
    (Problem.add_row ~name:"r1" p ~lo:neg_infinity ~up:1.0e12
       [ (x, 3.0e-5); (z, -1.0) ]);
  ignore (Problem.add_row ~name:"r2" p ~lo:(-2.0) ~up:(-2.0) [ (x, 1.0); (w, 1.0) ]);
  match Lp_format.of_string (Lp_format.to_string p) with
  | Error msg -> Alcotest.fail msg
  | Ok q -> assert_same_problem "hand-built" p q

(* like [random_problem] but tuned for the writer (shared generator,
   see lp_gen.ml): scientific-notation magnitudes, free/fixed/one-sided
   bounds, a variable referenced only by its Bounds line, and no range
   rows (the writer splits those in two by design, so they cannot
   round-trip structurally) *)
let random_format_problem rng = Lp_gen.random_format_problem rng

let test_lp_format_random_structural_roundtrip () =
  let rng = Prng.create 9119 in
  for id = 1 to 100 do
    let p = random_format_problem rng in
    match Lp_format.of_string (Lp_format.to_string p) with
    | Error msg -> Alcotest.failf "case %d: parse error: %s" id msg
    | Ok q -> assert_same_problem (Printf.sprintf "case %d" id) p q
  done

let test_ebf_program_exports () =
  (* the EBF LP of the paper's five-point example survives a write/solve *)
  let inst, tree = Lubt_data.Examples.five_point () in
  let prob = Lubt_core.Ebf.formulate inst tree in
  let text = Lp_format.to_string prob in
  match Lp_format.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok q ->
    let a = Solver.solve prob and b = Solver.solve q in
    Alcotest.(check bool) "both optimal" true
      (a.Status.status = Status.Optimal && b.Status.status = Status.Optimal);
    check_float "same optimum" a.Status.objective b.Status.objective


(* ------------------------------------------------------------------ *)
(* Engine cross-check on random EBF instances                           *)
(* ------------------------------------------------------------------ *)

module Simplex = Lubt_lp.Simplex
module Tableau = Lubt_lp.Tableau
module Ebf = Lubt_core.Ebf
module Instance = Lubt_core.Instance
module Topogen = Lubt_topo.Topogen
module Point = Lubt_geom.Point

(* The simplex engine must agree with the independent two-phase tableau
   oracle, both on the eager formulation and through the lazy
   row-generation loop (dual-simplex warm restarts after add_row). A
   fifth of the instances get an upper bound below the radius so the
   infeasibility verdict is cross-checked too. *)
let test_ebf_engine_vs_tableau () =
  let rng = Prng.create 8086 in
  for case = 1 to 50 do
    (* every fifth case gets an upper bound below the radius: provably
       no LUBT exists, so the infeasibility verdict is cross-checked *)
    let inst, tree = Lp_gen.random_ebf ~infeasible:(case mod 5 = 0) rng in
    let oracle = Tableau.solve (Ebf.formulate inst tree) in
    let eager = Solver.solve (Ebf.formulate inst tree) in
    if eager.Status.status <> oracle.Status.status then
      Alcotest.failf "case %d (eager): status %s vs oracle %s" case
        (Status.to_string eager.Status.status)
        (Status.to_string oracle.Status.status);
    if
      oracle.Status.status = Status.Optimal
      && not
           (Lubt_util.Stats.approx_eq ~eps:1e-6 eager.Status.objective
              oracle.Status.objective)
    then
      Alcotest.failf "case %d (eager): %.9g vs oracle %.9g" case
        eager.Status.objective oracle.Status.objective;
    let lazy_r = Ebf.solve inst tree in
    if lazy_r.Ebf.status <> oracle.Status.status then
      Alcotest.failf "case %d (lazy): status %s vs oracle %s" case
        (Status.to_string lazy_r.Ebf.status)
        (Status.to_string oracle.Status.status);
    if oracle.Status.status = Status.Optimal then begin
      if
        not
          (Lubt_util.Stats.approx_eq ~eps:1e-6 lazy_r.Ebf.objective
             oracle.Status.objective)
      then
        Alcotest.failf "case %d (lazy): %.9g vs oracle %.9g" case
          lazy_r.Ebf.objective oracle.Status.objective;
      match Ebf.check_lengths inst tree lazy_r.Ebf.lengths with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "case %d (lazy): %s" case msg
    end;
    (* telemetry sanity on the lazy run *)
    let st = lazy_r.Ebf.lp_stats in
    if st.Simplex.iterations <> lazy_r.Ebf.lp_iterations then
      Alcotest.failf "case %d: stats iterations %d vs result %d" case
        st.Simplex.iterations lazy_r.Ebf.lp_iterations;
    if List.length lazy_r.Ebf.round_stats <> lazy_r.Ebf.rounds then
      Alcotest.failf "case %d: %d round stats for %d rounds" case
        (List.length lazy_r.Ebf.round_stats)
        lazy_r.Ebf.rounds
  done

(* ------------------------------------------------------------------ *)
(* Sparse LU                                                            *)
(* ------------------------------------------------------------------ *)

module Lu = Lubt_lp.Lu

let random_nonsingular rng n =
  (* diagonally dominant random sparse matrix: always nonsingular *)
  Array.init n (fun j ->
      let entries = ref [ (j, 10.0 +. Prng.float rng 5.0) ] in
      for i = 0 to n - 1 do
        if i <> j && Prng.int rng 3 = 0 then
          entries := (i, Prng.float rng 4.0 -. 2.0) :: !entries
      done;
      Sparse.of_assoc !entries)

let mat_vec cols x =
  let n = Array.length cols in
  let y = Array.make n 0.0 in
  Array.iteri (fun j col -> Sparse.iter (fun i a -> y.(i) <- y.(i) +. (a *. x.(j))) col) cols;
  y

let mat_t_vec cols x =
  Array.map (fun col -> Sparse.dot_dense col x) cols

let test_lu_solve_roundtrip () =
  let rng = Prng.create 2025 in
  for case = 1 to 50 do
    let n = 1 + Prng.int rng 30 in
    let cols = random_nonsingular rng n in
    let lu = Lu.factor cols in
    Alcotest.(check int) "dim" n (Lu.dim lu);
    let x_true = Array.init n (fun _ -> Prng.float rng 10.0 -. 5.0) in
    let b = mat_vec cols x_true in
    let x = Array.make n 0.0 in
    Lu.solve lu b x;
    Array.iteri
      (fun i v ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-8 v x_true.(i)) then
          Alcotest.failf "case %d: solve x[%d] = %.12g vs %.12g" case i v
            x_true.(i))
      x
  done

let test_lu_transpose_solve () =
  let rng = Prng.create 3026 in
  for case = 1 to 50 do
    let n = 1 + Prng.int rng 30 in
    let cols = random_nonsingular rng n in
    let lu = Lu.factor cols in
    let x_true = Array.init n (fun _ -> Prng.float rng 10.0 -. 5.0) in
    let c = mat_t_vec cols x_true in
    let x = Array.make n 0.0 in
    Lu.solve_transpose lu c x;
    Array.iteri
      (fun i v ->
        if not (Lubt_util.Stats.approx_eq ~eps:1e-8 v x_true.(i)) then
          Alcotest.failf "case %d: btran x[%d] = %.12g vs %.12g" case i v
            x_true.(i))
      x
  done

let test_lu_detects_singular () =
  (* two identical columns *)
  let col = Sparse.of_assoc [ (0, 1.0); (1, 2.0) ] in
  (match Lu.factor [| col; col |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "duplicate columns must be singular");
  (* a zero column *)
  match Lu.factor [| Sparse.of_assoc [ (0, 1.0) ]; Sparse.empty |] with
  | exception Lu.Singular _ -> ()
  | _ -> Alcotest.fail "zero column must be singular"

let test_lu_permutation_matrix () =
  (* a permutation matrix exercises the pivoting bookkeeping *)
  let n = 6 in
  let perm = [| 3; 0; 5; 1; 4; 2 |] in
  let cols = Array.init n (fun j -> Sparse.of_assoc [ (perm.(j), 1.0) ]) in
  let lu = Lu.factor cols in
  Alcotest.(check int) "nnz of a permutation" n (Lu.nnz lu);
  let b = Array.init n float_of_int in
  let x = Array.make n 0.0 in
  Lu.solve lu b x;
  (* x_j = b_(perm j) *)
  Array.iteri
    (fun j v -> Alcotest.(check (float 1e-12)) "perm solve" b.(perm.(j)) v)
    x

(* [Lu.factor] pops the earlier pivots a column reaches from a heap
   instead of sweeping every k < j; the updates must still run in
   ascending k, so its factors equal the sweep's (test/ref_lu.ml) bit for
   bit, and a singular matrix fails at the same column. Small integer
   values make exact cancellations (x_k = 0.0 after an update) common. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let same_factors (f : Lu.factors) (g : Lu.factors) =
  f.Lu.pivot_rows = g.Lu.pivot_rows
  && f.Lu.l_index = g.Lu.l_index
  && f.Lu.u_index = g.Lu.u_index
  && same_bits f.Lu.diag g.Lu.diag
  && Array.for_all2 same_bits f.Lu.l_value g.Lu.l_value
  && Array.for_all2 same_bits f.Lu.u_value g.Lu.u_value

let factor_agrees cols =
  let outcome factor =
    match factor cols with f -> Ok f | exception Lu.Singular j -> Error j
  in
  match
    (outcome (fun c -> Lu.factors (Lu.factor c)), outcome Ref_lu.factor)
  with
  | Ok f, Ok g -> same_factors f g
  | Error j, Error j' -> j = j'
  | _ -> false

let prop_lu_factor_matches_sweep =
  QCheck.Test.make ~name:"heap-ordered factor equals the k < j sweep"
    ~count:300
    QCheck.(pair (int_range 1 80) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create (3 + (seed * 104729) + n) in
      let value () =
        if Prng.bool rng then float_of_int (Prng.int rng 5 - 2)
        else Prng.float rng 2.0 -. 1.0
      in
      let cols =
        Array.init n (fun j ->
            let entries =
              ref (if Prng.int rng 60 = 0 then [] else [ (j, 3.0 +. value ()) ])
            in
            for _ = 1 to Prng.int rng 4 do
              let i = Prng.int rng n in
              if not (List.mem_assoc i !entries) then
                entries := (i, value ()) :: !entries
            done;
            Sparse.of_assoc !entries)
      in
      factor_agrees cols)

(* bases of EBF programs: path-incidence columns of the edge variables
   mixed with slack unit columns, singular ones included *)
let prop_lu_factor_matches_sweep_ebf =
  QCheck.Test.make ~name:"heap-ordered factor equals the sweep on EBF bases"
    ~count:100 QCheck.small_nat (fun seed ->
      let rng = Prng.create (11 + (seed * 7919)) in
      let inst, tree = Lp_gen.random_ebf ~min_sinks:4 ~sink_span:12 rng in
      let prob = Lubt_core.Ebf.formulate inst tree in
      let m = Problem.nrows prob and nv = Problem.nvars prob in
      let structural = Array.make nv [] in
      for i = m - 1 downto 0 do
        Sparse.iter
          (fun j a -> structural.(j) <- (i, a) :: structural.(j))
          (Problem.row prob i).Problem.coeffs
      done;
      let used = Array.make nv false in
      let swap = Prng.int rng 4 in
      let cols =
        Array.init m (fun i ->
            let j = Prng.int rng nv in
            if Prng.int rng 10 < swap && not used.(j) then begin
              used.(j) <- true;
              Sparse.of_assoc structural.(j)
            end
            else Sparse.singleton i (-1.0))
      in
      factor_agrees cols)

(* The hyper-sparse kernels against the dense solves on one
   factorisation, over many consecutive solves: every solve starts a new
   reach stamp on the shared workspace, so stale marks or an unrestored
   scratch column would corrupt a later solve. The kernels process the
   reach in position order, exactly like the dense passes, so the results
   must agree bit for bit. Matrices are sparse enough (about two
   off-diagonals per column) that reaches stay small, and large enough
   that both the sorted and the swept reach orderings occur. *)
let prop_lu_sparse_kernels_match_dense =
  QCheck.Test.make ~name:"hyper-sparse solves equal dense solves" ~count:12
    QCheck.(pair (int_range 1 300) small_nat)
    (fun (n, seed) ->
      let rng = Prng.create (1 + (seed * 7919) + n) in
      let cols =
        Array.init n (fun j ->
            let entries = ref [ (j, 4.0 +. Prng.float rng 2.0) ] in
            for _ = 1 to Prng.int rng 3 do
              let i = Prng.int rng n in
              if i <> j then entries := (i, Prng.float rng 2.0 -. 1.0) :: !entries
            done;
            Sparse.of_assoc !entries)
      in
      let lu = Lu.factor cols in
      let rhs =
        Array.init 1000 (fun solve ->
            let k =
              if solve mod 50 = 0 then 1 + Prng.int rng n else 1 + Prng.int rng 3
            in
            Sparse.of_assoc
              (List.init k (fun _ -> (Prng.int rng n, Prng.float rng 2.0 -. 1.0))))
      in
      (* all sparse solves back to back first: a dense solve in between
         would reset the shared workspace and hide a leak *)
      let transposed solve = solve mod 2 = 1 in
      let densify b =
        let v = Array.make n 0.0 in
        Sparse.iter (fun i a -> v.(i) <- a) b;
        v
      in
      let sparse =
        Array.mapi
          (fun solve b ->
            let x = densify b in
            let idx = Array.of_list (List.map fst (Sparse.to_assoc b)) in
            let kernel =
              if transposed solve then Lu.solve_transpose_sparse else Lu.solve_sparse
            in
            kernel lu x idx (Array.length idx) x;
            x)
          rhs
      in
      Array.iteri
        (fun solve b ->
          let want = densify b in
          (if transposed solve then Lu.solve_transpose else Lu.solve)
            lu want want;
          Array.iteri
            (fun i v ->
              if v <> want.(i) then
                QCheck.Test.fail_reportf
                  "n=%d solve %d: x[%d] = %.17g, dense %.17g" n solve i v
                  want.(i))
            sparse.(solve))
        rhs;
      true)

(* ------------------------------------------------------------------ *)
(* Incremental reduced costs                                            *)
(* ------------------------------------------------------------------ *)

(* The dual simplex updates its reduced costs from the pivot row instead
   of recomputing them from a BTRAN. After every dual pivot they must
   still match a fresh [c_j - a_j^T y]: over
   the full formulations of random EBF instances (long dual runs from
   the all-slack basis, with refactorisations) and the lazy loop's
   warm re-solves after appended rows, and over the general random LPs
   of the lp_gen corpus that start dual feasible. *)
let test_incremental_reduced_costs () =
  let rng = Prng.create 4242 in
  let pivots = ref 0 in
  let watch label params prob =
    let eng = Simplex.of_problem ~params prob in
    Simplex.set_probe eng
      (Some
         (fun e ->
           if e.Simplex.pr_phase = "dual" then begin
             incr pivots;
             match Simplex.reduced_cost_drift eng with
             | None -> Alcotest.failf "%s: no reduced costs during a dual pivot" label
             | Some drift ->
               if drift > params.Simplex.tol_dual then
                 Alcotest.failf "%s, iteration %d: reduced costs drifted by %g"
                   label e.Simplex.pr_iteration drift
           end));
    ignore (Simplex.solve eng);
    eng
  in
  let params = { Simplex.default_params with Simplex.refactor_every = 25 } in
  (* two passes of 15 EBF + 200 random instances from one seeded stream *)
  for pass = 1 to 2 do
    for case = 1 to 15 do
      let inst, tree = Lp_gen.random_ebf ~min_sinks:10 ~sink_span:20 rng in
      let prob = Ebf.formulate inst tree in
      let eng = watch (Printf.sprintf "pass %d ebf %d" pass case) params prob in
      (* warm re-solve after a row that cuts off the optimum *)
      let v = Simplex.primal eng in
      let j = Prng.int rng (Array.length v) in
      Simplex.add_row eng ~lo:(v.(j) +. 1.0) ~up:infinity [ (j, 1.0) ];
      ignore (Simplex.solve eng)
    done;
    for case = 1 to 200 do
      let prob = Lp_gen.random_problem rng in
      ignore (watch (Printf.sprintf "pass %d random %d" pass case) params prob)
    done
  done;
  if !pivots < 1000 then
    Alcotest.failf "only %d dual pivots were checked" !pivots

(* The dual simplex spends one BTRAN per pivot (the pivot row) plus one
   per refactorisation (rebuilding the reduced costs) and one per round
   (the dual-feasibility check that seeds them). The counts are
   deterministic, so the budget is exact bookkeeping, not a timing: a
   return of the per-pivot multiplier BTRAN would double it. The
   instance is the one [lubt gen --size scaled --bench r3s --lower 0.95
   --upper 1.0] writes, routed on the baseline topology like
   [lubt solve --certify]. *)
let test_btran_budget_r3s () =
  let module Benchmarks = Lubt_data.Benchmarks in
  let module Io = Lubt_data.Io in
  let spec = Benchmarks.find Benchmarks.Scaled "r3s" in
  let inst =
    match
      Io.instance_of_string
        (Io.instance_to_string
           (Benchmarks.instance ~lower:0.95 ~upper:1.0 spec))
    with
    | Ok i -> i
    | Error msg -> Alcotest.fail msg
  in
  let lo, _ = Lubt_util.Stats.min_max inst.Instance.lower in
  let _, hi = Lubt_util.Stats.min_max inst.Instance.upper in
  let tree =
    (Lubt_bst.Bst_dme.route ~skew_bound:(hi -. lo) ?source:inst.Instance.source
       inst.Instance.sinks)
      .Lubt_bst.Bst_dme.topology
  in
  let r =
    Ebf.solve
      ~options:{ Ebf.default_options with Ebf.check = Lubt_lp.Certify.Full }
      inst tree
  in
  Alcotest.(check bool) "optimal" true (r.Ebf.status = Status.Optimal);
  (match r.Ebf.certificate with
  | Some c when c.Lubt_lp.Certify.ok -> ()
  | _ -> Alcotest.fail "certificate missing or rejected");
  Alcotest.(check string) "certified cost" "1767045.64"
    (Printf.sprintf "%.2f" r.Ebf.objective);
  let st = r.Ebf.lp_stats in
  (* the pivot trajectory: row generation and refactorisation are pure
     bookkeeping, so changes there must leave these counts exactly as
     the all-pairs scan and the k < j elimination sweep produced them *)
  Alcotest.(check int) "iterations" 1023 st.Simplex.iterations;
  Alcotest.(check int) "refactorisations" 15 st.Simplex.refactorisations;
  Alcotest.(check int) "rounds" 12 r.Ebf.rounds;
  Alcotest.(check int) "lp rows" 1483 r.Ebf.lp_rows;
  (* every violated pair is counted, not only the batch that is added *)
  Alcotest.(check (list int)) "violations per round"
    [ 23598; 10723; 6038; 3216; 2034; 1274; 650; 367; 189; 67; 5; 0 ]
    (List.map (fun s -> s.Ebf.violations_found) r.Ebf.round_stats);
  let budget =
    st.Simplex.iterations + st.Simplex.refactorisations + r.Ebf.rounds + 2
  in
  if st.Simplex.btran_count > budget then
    Alcotest.failf "%d BTRANs for %d pivots, %d refactorisations, %d rounds"
      st.Simplex.btran_count st.Simplex.iterations st.Simplex.refactorisations
      r.Ebf.rounds

let () =
  Alcotest.run "lp-extra"
    [
      ( "presolve",
        [
          Alcotest.test_case "fixed variable substitution" `Quick
            test_fixed_variable_substitution;
          Alcotest.test_case "singleton row to bound" `Quick
            test_singleton_row_to_bound;
          Alcotest.test_case "duplicate rows merge" `Quick
            test_duplicate_rows_merge;
          Alcotest.test_case "detects infeasibility" `Quick
            test_presolve_detects_infeasible;
          Alcotest.test_case "all variables fixed" `Quick
            test_all_variables_fixed;
          Alcotest.test_case "300 random LPs agree" `Slow
            test_presolve_random_agreement;
        ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "solve roundtrip" `Quick test_lu_solve_roundtrip;
          Alcotest.test_case "transpose solve" `Quick test_lu_transpose_solve;
          Alcotest.test_case "detects singular" `Quick test_lu_detects_singular;
          Alcotest.test_case "permutation matrix" `Quick
            test_lu_permutation_matrix;
          QCheck_alcotest.to_alcotest prop_lu_sparse_kernels_match_dense;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_lu_factor_matches_sweep;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            prop_lu_factor_matches_sweep_ebf;
        ] );
      ( "reduced-costs",
        [
          Alcotest.test_case "incremental d matches fresh after every dual pivot"
            `Quick test_incremental_reduced_costs;
          Alcotest.test_case "r3s scaled: certified cost, BTRAN budget" `Quick
            test_btran_budget_r3s;
        ] );
      ( "lp-format",
        [
          Alcotest.test_case "writer sections" `Quick test_lp_format_writer_shape;
          Alcotest.test_case "roundtrip 200 random LPs" `Slow
            test_lp_format_roundtrip;
          Alcotest.test_case "structural roundtrip" `Quick
            test_lp_format_structural_roundtrip;
          Alcotest.test_case "structural roundtrip, 100 random LPs" `Slow
            test_lp_format_random_structural_roundtrip;
          Alcotest.test_case "reader errors" `Quick test_lp_format_reader_errors;
          Alcotest.test_case "EBF program export" `Quick test_ebf_program_exports;
        ] );
      ( "ebf-cross-check",
        [
          Alcotest.test_case "engine vs tableau agreement" `Slow
            test_ebf_engine_vs_tableau;
        ] );
    ]
