type vstat = Basic of int | At_lower | At_upper | Free_zero

type fault_kind = Fault_singular_refactor | Fault_perturb_ftran | Fault_zero_pivot

type fault = {
  fault_seed : int;
  fault_kinds : fault_kind list;
  fault_rate : float;
  max_faults : int;
}

let fault_plan ?(kinds = [ Fault_singular_refactor; Fault_perturb_ftran; Fault_zero_pivot ])
    ?(rate = 0.25) ?(max_faults = 3) seed =
  { fault_seed = seed; fault_kinds = kinds; fault_rate = rate; max_faults }

type recovery_stage =
  | Refactor_retry
  | Tighten_pivot_tol
  | Perturb_and_resolve
  | Tableau_fallback

let default_recovery =
  [ Refactor_retry; Tighten_pivot_tol; Perturb_and_resolve; Tableau_fallback ]

type params = {
  max_iters : int;
  time_limit : float;
  tol_feas : float;
  tol_dual : float;
  tol_pivot : float;
  refactor_every : int;
  bound_flips : bool;
  warm_start : bool;
  bland_threshold : int;
  recovery : recovery_stage list;
  fault : fault option;
}

let default_params =
  {
    max_iters = 0;
    time_limit = infinity;
    tol_feas = 1e-7;
    tol_dual = 1e-9;
    tol_pivot = 1e-9;
    refactor_every = 100;
    bound_flips = true;
    warm_start = true;
    bland_threshold = 1000;
    recovery = default_recovery;
    fault = None;
  }

type probe_event = {
  pr_iteration : int;
  pr_phase : string;
  pr_objective : float;
  pr_primal_infeas : float;
  pr_dual_infeas : float;
  pr_entering : int;
  pr_leaving : int;
  pr_eta_count : int;
  pr_bound_flips : int;
  pr_recovery : string option;
}

type probe = probe_event -> unit

type recoveries = {
  refactor_retries : int;
  tolerance_escalations : int;
  perturbed_resolves : int;
  tableau_fallbacks : int;
  faults_injected : int;
  validations_rejected : int;
}

let no_recoveries =
  {
    refactor_retries = 0;
    tolerance_escalations = 0;
    perturbed_resolves = 0;
    tableau_fallbacks = 0;
    faults_injected = 0;
    validations_rejected = 0;
  }

let recovery_attempts r =
  r.refactor_retries + r.tolerance_escalations + r.perturbed_resolves
  + r.tableau_fallbacks

type stats = {
  iterations : int;
  phase1_iterations : int;
  phase2_iterations : int;
  dual_iterations : int;
  bound_flips : int;
  full_pricing_scans : int;
  ftran_count : int;
  btran_count : int;
  hyper_sparse_ftrans : int;
  hyper_sparse_btrans : int;
  basis_updates : int;
  basis_extensions : int;
  refactorisations : int;
  degenerate_pivots : int;
  bland_activations : int;
  recoveries : recoveries;
}

(* Internal mutable mirror of the counters that are not already tracked
   elsewhere (iterations live on [t], linear-algebra traffic in the shared
   {!Basis.counters}). *)
type istats = {
  mutable s_phase1_iters : int;
  mutable s_phase2_iters : int;
  mutable s_dual_iters : int;
  mutable s_flips : int;
  mutable s_full_scans : int;
  mutable s_degen : int;
  mutable s_bland : int;
  mutable s_rec_refactor : int;
  mutable s_rec_tol : int;
  mutable s_rec_perturb : int;
  mutable s_rec_tableau : int;
  mutable s_injected : int;
  mutable s_rejected : int;
}

let fresh_istats () =
  {
    s_phase1_iters = 0;
    s_phase2_iters = 0;
    s_dual_iters = 0;
    s_flips = 0;
    s_full_scans = 0;
    s_degen = 0;
    s_bland = 0;
    s_rec_refactor = 0;
    s_rec_tol = 0;
    s_rec_perturb = 0;
    s_rec_tableau = 0;
    s_injected = 0;
    s_rejected = 0;
  }

type t = {
  n : int;  (* structural variables; auxiliary var of row i has index n+i *)
  p : params;
  mutable m : int;  (* rows *)
  mutable cap : int;  (* row capacity of the grown arrays *)
  cols : Sparse.t array;  (* length n; structural columns over row indices *)
  mutable lo : float array;  (* length n+cap *)
  mutable up : float array;
  mutable obj : float array;
  mutable basic : int array;  (* length cap: row -> basic variable *)
  mutable vstat : vstat array;  (* length n+cap *)
  mutable xb : float array;  (* length cap: basic values per row *)
  mutable last_status : Status.t;
  (* sparse LU + eta trail; [None] only until [of_problem] factorises *)
  mutable sbasis : Basis.t option;
  mutable needs_factor : bool;
  (* warm-started rows were appended since the last solve: the incremental
     xb values must be refreshed from scratch before the next dual run, the
     same hygiene a cold start gets from [refactor]'s [recompute_xb] *)
  mutable xb_stale : bool;
  mutable iters : int;
  mutable since_refactor : int;
  mutable degen_streak : int;
  mutable bland : bool;
  (* resilience state: the recovery ladder may escalate the pivot
     tolerance mid-solve, so the live value is a mutable copy of
     [params.tol_pivot] *)
  mutable cur_tol_pivot : float;
  mutable time_budget : float;  (* seconds per solve; infinity = none *)
  mutable deadline : float;  (* absolute, set at solve entry *)
  mutable solving : bool;  (* fault hooks only fire inside solve *)
  mutable probe : probe option;  (* per-iteration convergence probe *)
  mutable cur_phase : string;  (* phase label for probe events *)
  mutable faults_left : int;
  frng : Lubt_util.Prng.t option;  (* fault-injection stream *)
  mutable fallback : Status.solution option;  (* Tableau_fallback result *)
  st : istats;
  ops : Basis.counters;  (* shared with every factorisation of [sbasis] *)
  (* dual simplex reduced costs d_j = c_j - a_j^T y, length n+cap, kept
     current for every non-fixed nonbasic column while [d_valid] holds:
     seeded by [dual_feasible], updated from the pivot row after each dual
     pivot and rebuilt after a refactorisation *)
  mutable d : float array;
  mutable d_valid : bool;
  (* nonzeros alpha_rj = rho . a_j of the current pivot row, collected by
     the dual ratio scan; length n+cap *)
  mutable a_idx : int array;
  mutable a_val : float array;
  (* scratch vectors, length cap *)
  mutable w : float array;
  mutable y : float array;
  mutable rho : float array;
  mutable cb : float array;
  mutable dx : float array;  (* bound-flip accumulator *)
}

exception Numerical of string

(* ------------------------------------------------------------------ *)
(* Tracing helpers                                                     *)
(* ------------------------------------------------------------------ *)

module Trace = Lubt_obs.Trace
module Clock = Lubt_obs.Clock

(* Hot-path guard idiom: when tracing is disabled a site costs one atomic
   load and a branch — no clock read, no closure allocation. *)
let tr_start () = if Trace.enabled () then Clock.now () else 0.0

let tr_stop t0 name = if Trace.enabled () then Trace.complete ~t0 name

module Metrics = Lubt_obs.Metrics

(* Aggregate solver metrics, recorded once per [solve] from the stats
   counters the engine maintains anyway — the per-pivot loops stay
   untouched, so the metrics registry adds nothing to the pivot path. *)
let m_solves =
  Metrics.counter ~help:"Simplex solve calls" "lubt_simplex_solves_total"

let m_iterations =
  Metrics.counter ~help:"Simplex pivots across all phases"
    "lubt_simplex_iterations_total"

let m_bound_flips =
  Metrics.counter ~help:"Dual bound flips" "lubt_simplex_bound_flips_total"

let m_recoveries =
  Metrics.counter ~help:"Numerical-recovery ladder stages consumed"
    "lubt_simplex_recoveries_total"

let m_ftrans =
  Metrics.counter ~help:"Forward basis solves" "lubt_simplex_ftrans_total"

let m_btrans =
  Metrics.counter ~help:"Transposed basis solves" "lubt_simplex_btrans_total"

let m_hyper_ftrans =
  Metrics.counter ~help:"FTRANs answered by the hyper-sparse path"
    "lubt_simplex_hyper_sparse_ftrans_total"

let m_hyper_btrans =
  Metrics.counter ~help:"BTRANs answered by the hyper-sparse path"
    "lubt_simplex_hyper_sparse_btrans_total"

(* ------------------------------------------------------------------ *)
(* Small accessors                                                     *)
(* ------------------------------------------------------------------ *)

let nrows t = t.m

let nvars t = t.n

let iterations t = t.iters

let is_fixed t j = t.up.(j) -. t.lo.(j) <= 0.0

let nonbasic_value t j =
  match t.vstat.(j) with
  | Basic _ -> invalid_arg "nonbasic_value: basic"
  | At_lower -> t.lo.(j)
  | At_upper -> t.up.(j)
  | Free_zero -> 0.0

let value t j =
  match t.vstat.(j) with Basic r -> t.xb.(r) | _ -> nonbasic_value t j

(* Iterate the equality-form column of variable [j]: structural columns come
   from the model, the auxiliary variable of row i is the column [-e_i]. *)
let col_iter t j f =
  if j < t.n then Sparse.iter f t.cols.(j) else f (j - t.n) (-1.0)

let column t j =
  if j < t.n then t.cols.(j) else Sparse.singleton (j - t.n) (-1.0)

let col_dot t j dense =
  if j < t.n then Sparse.dot_dense t.cols.(j) dense
  else -.dense.(j - t.n)

(* Relative tolerances: bounds in EBF problems are chip-scale (1e4..1e6), so
   absolute tests would be meaninglessly tight. *)
let feas_tol t bound = t.p.tol_feas *. (1.0 +. abs_float bound)

let dual_tol t j = t.p.tol_dual *. (1.0 +. abs_float t.obj.(j))

(* Monotonic by construction: a wall-clock step (NTP slew, manual reset)
   must neither fire a spurious Time_limit nor disable the budget. *)
let out_of_time t = t.deadline < infinity && Clock.now () > t.deadline

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                       *)
(* ------------------------------------------------------------------ *)

(* Whether a configured fault of [kind] fires at this call site. Fires only
   while a solve is running (never during [of_problem] or [add_row]) and at
   most [max_faults] times per engine, so recovery retries eventually see a
   clean run. The stream is seeded, so a given (problem, seed) pair fails in
   exactly the same way every time. *)
let fault_fires t kind =
  match (t.p.fault, t.frng) with
  | Some f, Some rng
    when t.solving && t.faults_left > 0 && List.mem kind f.fault_kinds ->
    if Lubt_util.Prng.float rng 1.0 < f.fault_rate then begin
      t.faults_left <- t.faults_left - 1;
      t.st.s_injected <- t.st.s_injected + 1;
      true
    end
    else false
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Linear algebra on the factorised basis                              *)
(* ------------------------------------------------------------------ *)

let basis t =
  match t.sbasis with
  | Some sb -> sb
  | None -> invalid_arg "Simplex: basis not factorised"

(* w <- B^-1 A_j. The column goes over sparse: single-entry auxiliary
   columns and short structural columns take the hyper-sparse kernels. *)
let ftran t q =
  let tr0 = tr_start () in
  Basis.ftran_sparse (basis t) (column t q) t.w;
  if t.m > 0 && fault_fires t Fault_perturb_ftran then begin
    match t.frng with
    | Some rng ->
      (* large relative error in one component: either harmless (the
         component is never pivoted on) or caught by post-solve validation *)
      let r = Lubt_util.Prng.int rng t.m in
      t.w.(r) <- t.w.(r) +. (0.01 *. (1.0 +. abs_float t.w.(r)))
    | None -> ()
  end;
  tr_stop tr0 "simplex.ftran"

(* y <- (B^-1)^T cb *)
let compute_y t cb =
  let tr0 = tr_start () in
  Array.blit cb 0 t.y 0 t.m;
  Basis.btran (basis t) t.y;
  tr_stop tr0 "simplex.btran"

let fill_cb_phase2 t =
  for r = 0 to t.m - 1 do
    t.cb.(r) <- t.obj.(t.basic.(r))
  done

(* Phase-I cost: gradient of the total bound violation of basic variables. *)
let fill_cb_phase1 t =
  for r = 0 to t.m - 1 do
    let b = t.basic.(r) in
    let x = t.xb.(r) in
    if x < t.lo.(b) -. feas_tol t t.lo.(b) then t.cb.(r) <- -1.0
    else if x > t.up.(b) +. feas_tol t t.up.(b) then t.cb.(r) <- 1.0
    else t.cb.(r) <- 0.0
  done

let primal_infeasibility t =
  let total = ref 0.0 in
  for r = 0 to t.m - 1 do
    let b = t.basic.(r) in
    let x = t.xb.(r) in
    if x < t.lo.(b) then total := !total +. (t.lo.(b) -. x)
    else if x > t.up.(b) then total := !total +. (x -. t.up.(b))
  done;
  !total

(* ------------------------------------------------------------------ *)
(* Convergence probe                                                   *)
(* ------------------------------------------------------------------ *)

let set_probe t p = t.probe <- p

(* Worst dual-feasibility violation of any nonbasic column under the
   current multipliers. Only computed when a probe is installed: it costs
   a BTRAN plus a full column scan per pivot, and it bumps the shared
   linear-algebra counters — an observed engine reports more btrans than
   an unobserved one. *)
let dual_infeasibility t =
  fill_cb_phase2 t;
  compute_y t t.cb;
  let worst = ref 0.0 in
  let total = t.n + t.m in
  for j = 0 to total - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | _ when is_fixed t j -> ()
    | At_lower ->
      let d = t.obj.(j) -. col_dot t j t.y in
      if d < 0.0 then worst := max !worst (-.d)
    | At_upper ->
      let d = t.obj.(j) -. col_dot t j t.y in
      if d > 0.0 then worst := max !worst d
    | Free_zero ->
      let d = abs_float (t.obj.(j) -. col_dot t j t.y) in
      worst := max !worst d
  done;
  !worst

(* Objective of the current (possibly infeasible) point; reads variable
   values only, so it is safe even mid-recovery when the factorisation is
   suspect. *)
let probe_objective t =
  let acc = ref 0.0 in
  for j = 0 to t.n - 1 do
    if t.obj.(j) <> 0.0 then acc := !acc +. (t.obj.(j) *. value t j)
  done;
  !acc

(* Fires the installed probe, if any. Recovery events skip the
   dual-infeasibility computation (the basis that just failed cannot be
   trusted to solve anything) and report it as nan. *)
let fire_probe t ?recovery ~entering ~leaving () =
  match t.probe with
  | None -> ()
  | Some f ->
    let mid_recovery = recovery <> None in
    f
      {
        pr_iteration = t.iters;
        pr_phase = (if mid_recovery then "recovery" else t.cur_phase);
        pr_objective = probe_objective t;
        pr_primal_infeas = primal_infeasibility t;
        pr_dual_infeas =
          (if mid_recovery then Float.nan else dual_infeasibility t);
        pr_entering = entering;
        pr_leaving = leaving;
        pr_eta_count = t.since_refactor;
        pr_bound_flips = t.st.s_flips;
        pr_recovery = recovery;
      }

let recompute_xb t =
  let m = t.m in
  let s = Array.make m 0.0 in
  for j = 0 to t.n + m - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | At_lower | At_upper | Free_zero ->
      let v = nonbasic_value t j in
      if v <> 0.0 then col_iter t j (fun i a -> s.(i) <- s.(i) +. (a *. v))
  done;
  Basis.ftran (basis t) s;
  for r = 0 to m - 1 do
    t.xb.(r) <- -.s.(r)
  done

let basis_columns t = Array.init t.m (fun k -> column t t.basic.(k))

(* LU pivot threshold scaled with the (possibly escalated) simplex pivot
   tolerance, never looser than the Lu.factor default. *)
let lu_pivot_tol t = max 1e-11 (t.cur_tol_pivot *. 1e-2)

(* Refactorise the basis from scratch: a sparse LU (basis matrices of
   path-structured LPs are very sparse) with an empty eta trail. Falls
   back on nothing — a singular basis is a hard numerical error handled
   by the recovery ladder in [solve]. *)
let refactor_run t =
  if fault_fires t Fault_singular_refactor then
    raise (Numerical "fault injection: forced singular refactorisation");
  (* a fresh factorisation is exact, so the anti-cycling escape restarts:
     a Bland run triggered by numerical degeneracy must not outlive the
     basis representation that caused it *)
  t.degen_streak <- 0;
  t.bland <- false;
  t.xb_stale <- false;
  (* the reduced costs restart from the fresh factorisation too, so their
     update rounding never accumulates past one refactor interval *)
  t.d_valid <- false;
  (match Basis.create ~counters:t.ops ~pivot_tol:(lu_pivot_tol t) (basis_columns t) with
  | sb ->
    t.sbasis <- Some sb;
    t.needs_factor <- false
  | exception Lu.Singular j ->
    raise (Numerical (Printf.sprintf "refactor: singular basis (column %d)" j)));
  t.since_refactor <- 0;
  recompute_xb t

(* [Trace.span] (rather than the complete-event idiom) so a singular
   factorisation still closes the span on the raise path. *)
let refactor t =
  if Trace.enabled () then Trace.span "simplex.refactor" (fun () -> refactor_run t)
  else refactor_run t

(* Classic product-form refactorisation criterion: once the eta/border
   trail stores as many nonzeros as the LU factors themselves, applying it
   costs more than a fresh solve would, so dragging it further is pure
   loss (and compounding rounding). *)
let trail_heavy t =
  let sb = basis t in
  Basis.trail_nnz sb > Basis.lu_nnz sb

let maybe_refactor t =
  if t.since_refactor >= t.p.refactor_every || t.needs_factor then refactor t

let check_consistency t =
  let saved = Array.sub t.xb 0 t.m in
  recompute_xb t;
  let worst = ref 0.0 in
  for r = 0 to t.m - 1 do
    worst := max !worst (abs_float (saved.(r) -. t.xb.(r)))
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Pricing                                                             *)
(* ------------------------------------------------------------------ *)

(* Attractiveness of nonbasic column [j] under the current multipliers t.y:
   Some (d, sigma) when entering j with direction sigma improves the
   phase cost, None otherwise. *)
let attractiveness t ~cost j =
  match t.vstat.(j) with
  | Basic _ -> None
  | _ when is_fixed t j -> None
  | At_lower ->
    let d = cost j -. col_dot t j t.y in
    if d < -.dual_tol t j then Some (d, 1.0) else None
  | At_upper ->
    let d = cost j -. col_dot t j t.y in
    if d > dual_tol t j then Some (d, -1.0) else None
  | Free_zero ->
    let d = cost j -. col_dot t j t.y in
    if d < -.dual_tol t j then Some (d, 1.0)
    else if d > dual_tol t j then Some (d, -1.0)
    else None

(* Dantzig pricing: a full scan of all n+m columns for the largest |d_j|
   (ties to the lowest index). In Bland mode the first eligible index
   wins instead. Returns (q, sigma, |d_q|). *)
let price t ~cost =
  let tr0 = tr_start () in
  t.st.s_full_scans <- t.st.s_full_scans + 1;
  let best = ref None in
  (try
     for j = 0 to t.n + t.m - 1 do
       match attractiveness t ~cost j with
       | None -> ()
       | Some (d, sigma) -> (
         let score = abs_float d in
         match !best with
         | Some (_, _, s) when s >= score -> ()
         | _ ->
           best := Some (j, sigma, score);
           if t.bland then raise Exit)
     done
   with Exit -> ());
  tr_stop tr0 "simplex.price";
  !best

(* ------------------------------------------------------------------ *)
(* Pivoting                                                            *)
(* ------------------------------------------------------------------ *)

(* Eta update of the basis after variable q (with ftran result in t.w)
   replaces the basic variable of row r. *)
let update_basis t r =
  if fault_fires t Fault_zero_pivot then
    raise (Basis.Zero_pivot { row = r; magnitude = 0.0 });
  Basis.update ~tol:t.cur_tol_pivot (basis t) r t.w

type blocking = Flip | Block of { row : int; to_upper : bool }

(* Applies a primal step: entering q moves by sigma*step, the blocking
   constraint decides who leaves the basis. t.w holds ftran(q). *)
let apply_primal_pivot t ~q ~sigma ~step ~blocking =
  (* primal pivots do not maintain the dual simplex's reduced costs *)
  t.d_valid <- false;
  let w = t.w in
  let q_new = value t q +. (sigma *. step) in
  let left =
    match blocking with
    | Flip ->
      for r = 0 to t.m - 1 do
        t.xb.(r) <- t.xb.(r) -. (sigma *. step *. w.(r))
      done;
      t.vstat.(q) <-
        (match t.vstat.(q) with
        | At_lower -> At_upper
        | At_upper -> At_lower
        | Basic _ | Free_zero -> invalid_arg "flip of non-bounded variable");
      -1
    | Block { row = r; to_upper } ->
      (* update the basis representation first: it raises on a bad pivot
         before mutating anything, keeping vstat/basic/xb consistent for the
         recovery ladder *)
      update_basis t r;
      for r' = 0 to t.m - 1 do
        if r' <> r then t.xb.(r') <- t.xb.(r') -. (sigma *. step *. w.(r'))
      done;
      let leaving = t.basic.(r) in
      t.vstat.(leaving) <- (if to_upper then At_upper else At_lower);
      t.basic.(r) <- q;
      t.vstat.(q) <- Basic r;
      t.xb.(r) <- q_new;
      leaving
  in
  t.iters <- t.iters + 1;
  t.since_refactor <- t.since_refactor + 1;
  if step <= t.cur_tol_pivot then begin
    t.degen_streak <- t.degen_streak + 1;
    t.st.s_degen <- t.st.s_degen + 1
  end
  else t.degen_streak <- 0;
  if t.degen_streak > t.p.bland_threshold then begin
    if not t.bland then t.st.s_bland <- t.st.s_bland + 1;
    t.bland <- true
  end
  else if t.degen_streak = 0 then t.bland <- false;
  fire_probe t ~entering:q ~leaving:left ()

(* ------------------------------------------------------------------ *)
(* Ratio tests                                                         *)
(* ------------------------------------------------------------------ *)

(* Phase-II ratio test: every basic variable blocks at the first bound it
   reaches. Returns (step, blocking) or None for unbounded. *)
let ratio_phase2 t ~q ~sigma =
  let tr0 = tr_start () in
  let w = t.w in
  let best_step = ref infinity in
  let best_block = ref Flip in
  let best_mag = ref 0.0 in
  (if t.lo.(q) > neg_infinity && t.up.(q) < infinity then begin
     best_step := t.up.(q) -. t.lo.(q);
     best_block := Flip;
     best_mag := 0.0
   end);
  for r = 0 to t.m - 1 do
    let delta = -.(sigma *. w.(r)) in
    if abs_float delta > t.cur_tol_pivot then begin
      let b = t.basic.(r) in
      let x = t.xb.(r) in
      let bound, to_upper =
        if delta > 0.0 then (t.up.(b), true) else (t.lo.(b), false)
      in
      if abs_float bound < infinity then begin
        let lim = max 0.0 ((bound -. x) /. delta) in
        let mag = abs_float w.(r) in
        if
          lim < !best_step -. t.cur_tol_pivot
          || (lim <= !best_step +. t.cur_tol_pivot && mag > !best_mag)
        then begin
          best_step := lim;
          best_block := Block { row = r; to_upper };
          best_mag := mag
        end
      end
    end
  done;
  tr_stop tr0 "simplex.ratio_test";
  if !best_step = infinity then None else Some (!best_step, !best_block)

(* Phase-I ratio test: feasible basic variables block as in phase II;
   infeasible ones block only when the step would carry them to the bound
   they violate (the phase-I gradient changes there). *)
let ratio_phase1 t ~q ~sigma =
  let tr0 = tr_start () in
  let w = t.w in
  let best_step = ref infinity in
  let best_block = ref Flip in
  let best_mag = ref 0.0 in
  (if t.lo.(q) > neg_infinity && t.up.(q) < infinity then begin
     best_step := t.up.(q) -. t.lo.(q);
     best_block := Flip
   end);
  let offer lim r to_upper mag =
    let lim = max 0.0 lim in
    if
      lim < !best_step -. t.cur_tol_pivot
      || (lim <= !best_step +. t.cur_tol_pivot && mag > !best_mag)
    then begin
      best_step := lim;
      best_block := Block { row = r; to_upper };
      best_mag := mag
    end
  in
  for r = 0 to t.m - 1 do
    let delta = -.(sigma *. w.(r)) in
    if abs_float delta > t.cur_tol_pivot then begin
      let b = t.basic.(r) in
      let x = t.xb.(r) in
      let mag = abs_float w.(r) in
      if x < t.lo.(b) -. feas_tol t t.lo.(b) then begin
        (* violated below: blocks only when moving up to its lower bound *)
        if delta > 0.0 then offer ((t.lo.(b) -. x) /. delta) r false mag
      end
      else if x > t.up.(b) +. feas_tol t t.up.(b) then begin
        if delta < 0.0 then offer ((t.up.(b) -. x) /. delta) r true mag
      end
      else begin
        let bound, to_upper =
          if delta > 0.0 then (t.up.(b), true) else (t.lo.(b), false)
        in
        if abs_float bound < infinity then
          offer ((bound -. x) /. delta) r to_upper mag
      end
    end
  done;
  tr_stop tr0 "simplex.ratio_test";
  if !best_step = infinity then None else Some (!best_step, !best_block)

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

let effective_max_iters t =
  if t.p.max_iters > 0 then t.p.max_iters else (100 * (t.n + t.m)) + 10_000

(* Phase II from a primal-feasible basis. *)
let primal_phase2 t =
  let rec loop () =
    if t.iters > effective_max_iters t then Status.Iteration_limit
    else if out_of_time t then Status.Time_limit
    else begin
      maybe_refactor t;
      fill_cb_phase2 t;
      compute_y t t.cb;
      match price t ~cost:(fun j -> t.obj.(j)) with
      | None -> Status.Optimal
      | Some (q, sigma, _) -> (
        ftran t q;
        match ratio_phase2 t ~q ~sigma with
        | None -> Status.Unbounded
        | Some (step, blocking) ->
          apply_primal_pivot t ~q ~sigma ~step ~blocking;
          loop ())
    end
  in
  loop ()

(* Phase I: drive the total bound violation of basic variables to zero. *)
let primal_phase1 t =
  let rec loop () =
    if t.iters > effective_max_iters t then Status.Iteration_limit
    else if out_of_time t then Status.Time_limit
    else begin
      maybe_refactor t;
      let inf = primal_infeasibility t in
      if inf <= t.p.tol_feas *. float_of_int (1 + t.m) then Status.Optimal
      else begin
        fill_cb_phase1 t;
        compute_y t t.cb;
        match price t ~cost:(fun _ -> 0.0) with
        | None -> Status.Infeasible
        | Some (q, sigma, _) -> (
          ftran t q;
          match ratio_phase1 t ~q ~sigma with
          | None -> raise (Numerical "phase 1: unbounded infeasibility")
          | Some (step, blocking) ->
            apply_primal_pivot t ~q ~sigma ~step ~blocking;
            loop ())
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

let most_violated_row t =
  let best = ref None in
  for r = 0 to t.m - 1 do
    let b = t.basic.(r) in
    let x = t.xb.(r) in
    let viol =
      if x < t.lo.(b) -. feas_tol t t.lo.(b) then t.lo.(b) -. x
      else if x > t.up.(b) +. feas_tol t t.up.(b) then x -. t.up.(b)
      else 0.0
    in
    if viol > 0.0 then
      match !best with
      | Some (_, v) when v >= viol -> ()
      | _ -> best := Some (r, viol)
  done;
  !best

(* d_j = c_j - a_j^T y for every non-fixed nonbasic column, from a fresh
   BTRAN of the basic costs. *)
let refresh_reduced_costs t =
  fill_cb_phase2 t;
  compute_y t t.cb;
  for j = 0 to t.n + t.m - 1 do
    match t.vstat.(j) with
    | Basic _ -> ()
    | _ when is_fixed t j -> ()
    | At_lower | At_upper | Free_zero ->
      t.d.(j) <- t.obj.(j) -. col_dot t j t.y
  done;
  t.d_valid <- true

(* Row r of B^-1 into t.rho. *)
let pivot_row t r =
  let tr0 = tr_start () in
  Basis.btran_unit (basis t) r t.rho;
  tr_stop tr0 "simplex.btran"

(* Moves the planned flips to their opposite bounds and updates the basic
   values by one accumulated solve: xb -= B^-1 (sum_j A_j dx_j). The
   reduced costs are untouched — no basis change. *)
let apply_flips t flips =
  let tr0 = tr_start () in
  let acc = t.dx in
  Array.fill acc 0 t.m 0.0;
  List.iter
    (fun j ->
      let dx =
        match t.vstat.(j) with
        | At_lower ->
          t.vstat.(j) <- At_upper;
          t.up.(j) -. t.lo.(j)
        | At_upper ->
          t.vstat.(j) <- At_lower;
          t.lo.(j) -. t.up.(j)
        | Basic _ | Free_zero -> invalid_arg "dual flip of unbounded variable"
      in
      col_iter t j (fun i a -> acc.(i) <- acc.(i) +. (a *. dx));
      t.st.s_flips <- t.st.s_flips + 1)
    flips;
  Basis.ftran (basis t) acc;
  for r' = 0 to t.m - 1 do
    t.xb.(r') <- t.xb.(r') -. acc.(r')
  done;
  tr_stop tr0 "simplex.flips"

(* Entry contract: a [dual_feasible] that returned [true] has just seeded
   the reduced costs [t.d]. Each pivot then costs one BTRAN (the pivot row
   rho), the entering FTRAN, and an update of d from the alphas of that
   row; d is rebuilt from a BTRAN only after a refactorisation. *)
let dual_simplex t =
  let rec loop () =
    if t.iters > effective_max_iters t then Status.Iteration_limit
    else if out_of_time t then Status.Time_limit
    else begin
      maybe_refactor t;
      if not t.d_valid then refresh_reduced_costs t;
      match most_violated_row t with
      | None -> Status.Optimal
      | Some (r, _) ->
        let b = t.basic.(r) in
        let above = t.xb.(r) > t.up.(b) in
        let s = if above then 1.0 else -1.0 in
        pivot_row t r;
        (* entering candidates: columns whose pivot sign restores primal
           feasibility, with their dual ratio |d_j| / |alpha_j|; every
           nonzero alpha_rj is kept for the reduced-cost update *)
        let tr0 = tr_start () in
        t.st.s_full_scans <- t.st.s_full_scans + 1;
        let cands = ref [] in
        let consider j ratio alpha =
          cands := (j, ratio, abs_float alpha) :: !cands
        in
        let na = ref 0 in
        let total = t.n + t.m in
        for j = 0 to total - 1 do
          match t.vstat.(j) with
          | Basic _ -> ()
          | _ when is_fixed t j -> ()
          | st ->
            let a = col_dot t j t.rho in
            if a <> 0.0 then begin
              t.a_idx.(!na) <- j;
              t.a_val.(!na) <- a;
              incr na;
              let alpha = s *. a in
              match st with
              | At_lower ->
                if alpha > t.cur_tol_pivot then
                  consider j (max 0.0 t.d.(j) /. alpha) alpha
              | At_upper ->
                if alpha < -.t.cur_tol_pivot then
                  consider j (min 0.0 t.d.(j) /. alpha) alpha
              | Free_zero ->
                if abs_float alpha > t.cur_tol_pivot then consider j 0.0 alpha
              | Basic _ -> ()
            end
        done;
        let target = if above then t.up.(b) else t.lo.(b) in
        (* Entering choice: minimum dual ratio, ties (within 1e-12) to the
           largest pivot, then to the scan order. *)
        let pick cs =
          let best = ref None in
          List.iter
            (fun (j, ratio, mag) ->
              match !best with
              | Some (_, br, bm)
                when br < ratio -. 1e-9 || (br <= ratio +. 1e-9 && bm >= mag)
                -> ()
              | _ -> best := Some (j, ratio, mag))
            cs;
          !best
        in
        (* Bound flips (long-step rule): walk the breakpoints in dual-ratio
           order by repeated extraction with the same rule; a boxed
           candidate whose full flip cannot absorb the remaining primal
           violation is flipped to its opposite bound (no basis change —
           its reduced cost has crossed zero, so it is dual feasible at
           the new bound) and the walk continues with the violation it
           paid off; the first candidate that would overshoot enters.
           With no flippable candidates this degenerates to a single
           extraction — identical to the flip-free rule. Flips are
           planned first and applied only once an entering column exists,
           so an infeasible exit mutates nothing. *)
        let entering, flips =
          if not t.p.bound_flips then
            ((match pick !cands with Some (j, _, _) -> j | None -> -1), [])
          else begin
            let tol = feas_tol t target in
            let rec walk cs delta flips =
              match pick cs with
              | None -> (-1, flips)
              | Some (j, _, mag) ->
                let range = t.up.(j) -. t.lo.(j) in
                let gain =
                  if range < infinity then range *. mag else infinity
                in
                if gain < delta -. tol then
                  walk
                    (List.filter (fun (j', _, _) -> j' <> j) cs)
                    (delta -. gain) (j :: flips)
                else (j, flips)
            in
            walk !cands (abs_float (t.xb.(r) -. target)) []
          end
        in
        tr_stop tr0 "simplex.dual_scan";
        if entering < 0 then Status.Infeasible
        else begin
          let q = entering in
          if flips <> [] then apply_flips t flips;
          ftran t q;
          let alpha_rq = t.w.(r) in
          if abs_float alpha_rq < t.cur_tol_pivot then
            raise (Numerical "dual simplex: tiny pivot");
          let dq = (t.xb.(r) -. target) /. alpha_rq in
          let q_new = value t q +. dq in
          let tr0 = tr_start () in
          (* basis update first: raises before any state mutation *)
          update_basis t r;
          for r' = 0 to t.m - 1 do
            if r' <> r then t.xb.(r') <- t.xb.(r') -. (dq *. t.w.(r'))
          done;
          (* dual update along the pivot row: y' = y + theta rho, so
             d_j -= theta alpha_rj; the entering column's reduced cost
             becomes 0 and the leaving variable's becomes -theta *)
          let theta = t.d.(q) /. col_dot t q t.rho in
          for k = 0 to !na - 1 do
            let j = t.a_idx.(k) in
            t.d.(j) <- t.d.(j) -. (theta *. t.a_val.(k))
          done;
          t.d.(q) <- 0.0;
          t.d.(b) <- -.theta;
          t.vstat.(b) <- (if above then At_upper else At_lower);
          t.basic.(r) <- q;
          t.vstat.(q) <- Basic r;
          t.xb.(r) <- q_new;
          tr_stop tr0 "simplex.update";
          t.iters <- t.iters + 1;
          t.since_refactor <- t.since_refactor + 1;
          fire_probe t ~entering:q ~leaving:b ();
          loop ()
        end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Loading and growing                                                 *)
(* ------------------------------------------------------------------ *)

let initial_vstat lo up =
  if lo > neg_infinity then At_lower
  else if up < infinity then At_upper
  else Free_zero

let grow_arrays t needed_cap =
  if needed_cap > t.cap then begin
    let ncap = max needed_cap (2 * t.cap) in
    let grow_f arr extra =
      let res = Array.make (extra + ncap) 0.0 in
      Array.blit arr 0 res 0 (Array.length arr);
      res
    in
    let grow_i arr =
      let res = Array.make ncap 0 in
      Array.blit arr 0 res 0 t.m;
      res
    in
    t.lo <- grow_f t.lo t.n;
    t.up <- grow_f t.up t.n;
    t.obj <- grow_f t.obj t.n;
    t.basic <- grow_i t.basic;
    t.xb <- grow_f t.xb 0;
    t.w <- Array.make ncap 0.0;
    t.y <- Array.make ncap 0.0;
    t.rho <- Array.make ncap 0.0;
    t.cb <- Array.make ncap 0.0;
    t.dx <- Array.make ncap 0.0;
    t.d <- grow_f t.d t.n;
    t.a_idx <- Array.make (t.n + ncap) 0;
    t.a_val <- Array.make (t.n + ncap) 0.0;
    let vs = Array.make (t.n + ncap) Free_zero in
    Array.blit t.vstat 0 vs 0 (t.n + t.m);
    t.vstat <- vs;
    t.cap <- ncap
  end

let of_problem ?(params = default_params) prob =
  let n = Problem.nvars prob in
  let m = Problem.nrows prob in
  let cap = max 16 (m + (m / 2)) in
  (* structural columns: transpose the row-wise model *)
  let buckets = Array.make n [] in
  for i = m - 1 downto 0 do
    Sparse.iter
      (fun j v -> buckets.(j) <- (i, v) :: buckets.(j))
      (Problem.row prob i).coeffs
  done;
  let cols = Array.map Sparse.of_assoc buckets in
  let lo = Array.make (n + cap) 0.0 and up = Array.make (n + cap) 0.0 in
  let obj = Array.make (n + cap) 0.0 in
  for j = 0 to n - 1 do
    lo.(j) <- Problem.var_lo prob j;
    up.(j) <- Problem.var_up prob j;
    obj.(j) <- Problem.obj_coeff prob j
  done;
  for i = 0 to m - 1 do
    let r = Problem.row prob i in
    lo.(n + i) <- r.rlo;
    up.(n + i) <- r.rup
  done;
  let vstat = Array.make (n + cap) Free_zero in
  for j = 0 to n - 1 do
    vstat.(j) <- initial_vstat lo.(j) up.(j)
  done;
  let basic = Array.make cap 0 in
  for i = 0 to m - 1 do
    basic.(i) <- n + i;
    vstat.(n + i) <- Basic i
  done;
  let t =
    {
      n;
      p = params;
      m;
      cap;
      cols;
      lo;
      up;
      obj;
      basic;
      vstat;
      xb = Array.make cap 0.0;
      last_status = Status.Iteration_limit;
      sbasis = None;
      needs_factor = true;
      xb_stale = false;
      iters = 0;
      since_refactor = 0;
      degen_streak = 0;
      bland = false;
      cur_tol_pivot = params.tol_pivot;
      time_budget = params.time_limit;
      deadline = infinity;
      solving = false;
      probe = None;
      cur_phase = "";
      faults_left =
        (match params.fault with Some f -> f.max_faults | None -> 0);
      frng =
        (match params.fault with
        | Some f -> Some (Lubt_util.Prng.create f.fault_seed)
        | None -> None);
      fallback = None;
      st = fresh_istats ();
      ops = Basis.fresh_counters ();
      w = Array.make cap 0.0;
      y = Array.make cap 0.0;
      rho = Array.make cap 0.0;
      cb = Array.make cap 0.0;
      dx = Array.make cap 0.0;
      d = Array.make (n + cap) 0.0;
      d_valid = false;
      a_idx = Array.make (n + cap) 0;
      a_val = Array.make (n + cap) 0.0;
    }
  in
  refactor t;
  t

let add_row t ~lo ~up coeffs =
  if not (lo <= up) then invalid_arg "Simplex.add_row: lo > up";
  let sp = Sparse.of_assoc coeffs in
  if Sparse.max_index sp >= t.n then
    invalid_arg "Simplex.add_row: unknown structural variable";
  grow_arrays t (t.m + 1);
  let r_new = t.m in
  let aux = t.n + r_new in
  t.lo.(aux) <- lo;
  t.up.(aux) <- up;
  t.obj.(aux) <- 0.0;
  (* extend the columns of the referenced structural variables *)
  Sparse.iter
    (fun j v ->
      let old = t.cols.(j) in
      t.cols.(j) <- Sparse.of_assoc ((r_new, v) :: Sparse.to_assoc old))
    sp;
  (* extend the basis: the new basis matrix is [[B, 0], [C, -1]], where C
     holds the new row's coefficients on the current basic (necessarily
     structural) variables. A warm start appends that border to the live
     factorisation — the next solve then re-enters the dual simplex
     without refactorising — and otherwise the factorisation is rebuilt
     at the next solve. *)
  (match t.sbasis with
  | Some sb when t.p.warm_start && not t.needs_factor ->
    let border = ref [] in
    Sparse.iter
      (fun j v ->
        match t.vstat.(j) with
        | Basic k -> border := (k, v) :: !border
        | At_lower | At_upper | Free_zero -> ())
      sp;
    Basis.append_row sb (Sparse.of_assoc !border);
    t.since_refactor <- t.since_refactor + 1;
    t.xb_stale <- true
  | _ -> t.needs_factor <- true);
  (* the new auxiliary variable enters the basis at the row's activity *)
  let activity =
    Sparse.fold (fun j v acc -> acc +. (v *. value t j)) sp 0.0
  in
  t.basic.(r_new) <- aux;
  t.vstat.(aux) <- Basic r_new;
  t.xb.(r_new) <- activity;
  t.m <- t.m + 1;
  t.fallback <- None;  (* any fallback solution predates this row *)
  t.last_status <- Status.Iteration_limit

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let dual_feasible t =
  fill_cb_phase2 t;
  compute_y t t.cb;
  let ok = ref true in
  let total = t.n + t.m in
  let j = ref 0 in
  while !ok && !j < total do
    (match t.vstat.(!j) with
    | Basic _ -> ()
    | _ when is_fixed t !j -> ()
    | st ->
      let d = t.obj.(!j) -. col_dot t !j t.y in
      t.d.(!j) <- d;
      let tol = 10.0 *. dual_tol t !j in
      (match st with
      | At_lower -> if d < -.tol then ok := false
      | At_upper -> if d > tol then ok := false
      | Free_zero -> if abs_float d > tol then ok := false
      | Basic _ -> ()));
    incr j
  done;
  (* a completed scan has seeded every reduced cost the dual simplex
     reads, which is what lets it start without a BTRAN of its own *)
  t.d_valid <- !ok;
  !ok

(* Phase-attributed wrappers: add the iteration delta of one algorithm run
   to its stats bucket and record it on a span named after the phase. *)
let run_in t ~phase ~span algo bump =
  let tr0 = tr_start () in
  let it0 = t.iters in
  t.cur_phase <- phase;
  let r = algo t in
  bump (t.iters - it0);
  if Trace.enabled () then
    Trace.complete ~t0:tr0 span
      ~args:[ ("iterations", Trace.Int (t.iters - it0)) ];
  r

let run_phase1 t =
  run_in t ~phase:"phase1" ~span:"simplex.phase1" primal_phase1 (fun d ->
      t.st.s_phase1_iters <- t.st.s_phase1_iters + d)

let run_phase2 t =
  run_in t ~phase:"phase2" ~span:"simplex.phase2" primal_phase2 (fun d ->
      t.st.s_phase2_iters <- t.st.s_phase2_iters + d)

let run_dual t =
  run_in t ~phase:"dual" ~span:"simplex.dual" dual_simplex (fun d ->
      t.st.s_dual_iters <- t.st.s_dual_iters + d)

(* Algorithm selection for one clean run from the current basis. *)
let drive t =
  if dual_feasible t then run_dual t
  else begin
    let inf = primal_infeasibility t in
    if inf <= t.p.tol_feas *. float_of_int (1 + t.m) then run_phase2 t
    else
      match run_phase1 t with
      | Status.Optimal -> run_phase2 t
      | other -> other
  end

(* A solve that ends Optimal must also look optimal when checked only
   against the original column data — never through the factorisation,
   which is exactly the object a numerical fault corrupts. Checks the
   equality system [A | -I] x = 0 and the bound feasibility of the basic
   values; a failure re-enters the recovery ladder. *)
let validate_solution t =
  let m = t.m in
  if m > 0 then begin
    let s = Array.make m 0.0 in
    let scale = ref 1.0 in
    for j = 0 to t.n + m - 1 do
      let v = value t j in
      if v <> 0.0 then begin
        if abs_float v > !scale then scale := abs_float v;
        col_iter t j (fun i a -> s.(i) <- s.(i) +. (a *. v))
      end
    done;
    let residual = ref 0.0 in
    for i = 0 to m - 1 do
      if abs_float s.(i) > !residual then residual := abs_float s.(i)
    done;
    let residual = !residual /. !scale in
    let infeas = ref 0.0 in
    for r = 0 to m - 1 do
      let b = t.basic.(r) in
      let x = t.xb.(r) in
      let v =
        if x < t.lo.(b) then (t.lo.(b) -. x) /. (1.0 +. abs_float t.lo.(b))
        else if x > t.up.(b) then (x -. t.up.(b)) /. (1.0 +. abs_float t.up.(b))
        else 0.0
      in
      if v > !infeas then infeas := v
    done;
    let tol = 1e3 *. t.p.tol_feas in
    if residual > tol || !infeas > tol then begin
      t.st.s_rejected <- t.st.s_rejected + 1;
      raise
        (Numerical
           (Printf.sprintf
              "post-solve validation: equality residual %.3g, bound violation %.3g"
              residual !infeas))
    end
  end

(* Reconstructs a standalone Problem.t equal to the engine's current model
   (including rows appended with add_row), for the independent fallback
   solver and for diagnostics. *)
let to_problem t =
  let prob = Problem.create () in
  for j = 0 to t.n - 1 do
    ignore (Problem.add_var ~lo:t.lo.(j) ~up:t.up.(j) ~obj:t.obj.(j) prob)
  done;
  let rows = Array.make (max 1 t.m) [] in
  for j = t.n - 1 downto 0 do
    Sparse.iter (fun i a -> rows.(i) <- (j, a) :: rows.(i)) t.cols.(j)
  done;
  for i = 0 to t.m - 1 do
    ignore (Problem.add_row prob ~lo:t.lo.(t.n + i) ~up:t.up.(t.n + i) rows.(i))
  done;
  prob

(* The exception classes the recovery ladder is allowed to absorb. Anything
   else (Invalid_argument, Out_of_memory, ...) is a caller or engine bug and
   propagates. *)
let recoverable = function
  | Numerical msg -> Some msg
  | Lu.Singular j -> Some (Printf.sprintf "singular factorisation (column %d)" j)
  | Basis.Zero_pivot { row; magnitude } ->
    Some (Printf.sprintf "zero pivot at row %d (|pivot| = %g)" row magnitude)
  | _ -> None

type stage_outcome = Retry | Final of Status.t

let stage_name = function
  | Refactor_retry -> "refactor_retry"
  | Tighten_pivot_tol -> "tighten_pivot_tol"
  | Perturb_and_resolve -> "perturb_and_resolve"
  | Tableau_fallback -> "tableau_fallback"

let apply_stage t stage =
  let name = stage_name stage in
  Lubt_obs.Log.warn
    ~fields:
      [ ("stage", Trace.Str name); ("iteration", Trace.Int t.iters) ]
    "simplex recovery stage engaged";
  Trace.instant "simplex.recovery" ~args:[ ("stage", Trace.Str name) ];
  fire_probe t ~recovery:name ~entering:(-1) ~leaving:(-1) ();
  match stage with
  | Refactor_retry ->
    t.st.s_rec_refactor <- t.st.s_rec_refactor + 1;
    refactor t;
    Retry
  | Tighten_pivot_tol ->
    t.st.s_rec_tol <- t.st.s_rec_tol + 1;
    t.cur_tol_pivot <- min 1e-5 (t.cur_tol_pivot *. 100.0);
    refactor t;
    Retry
  | Perturb_and_resolve ->
    t.st.s_rec_perturb <- t.st.s_rec_perturb + 1;
    let total = t.n + t.m in
    let saved_lo = Array.sub t.lo 0 total in
    let saved_up = Array.sub t.up 0 total in
    (* outward relative perturbation of the finite bounds of non-fixed
       variables: relaxes the problem slightly and breaks the degenerate
       vertex that defeated the pivot tolerances; seeded, so deterministic *)
    let rng = Lubt_util.Prng.create (0x9e37 + t.st.s_rec_perturb) in
    for j = 0 to total - 1 do
      if t.up.(j) > t.lo.(j) then begin
        if t.lo.(j) > neg_infinity then
          t.lo.(j) <-
            t.lo.(j)
            -. (1e-7 *. (1.0 +. abs_float t.lo.(j)) *. Lubt_util.Prng.float rng 1.0);
        if t.up.(j) < infinity then
          t.up.(j) <-
            t.up.(j)
            +. (1e-7 *. (1.0 +. abs_float t.up.(j)) *. Lubt_util.Prng.float rng 1.0)
      end
    done;
    let outcome =
      match
        refactor t;
        ignore (drive t)
      with
      | () -> None
      | exception e -> Some e
    in
    Array.blit saved_lo 0 t.lo 0 total;
    Array.blit saved_up 0 t.up 0 total;
    (match outcome with
    | Some e when recoverable e = None -> raise e
    | _ -> ());
    (* clean re-solve on the exact bounds happens at the next attempt; here
       only the basis bookkeeping is refreshed for the restored bounds *)
    refactor t;
    Retry
  | Tableau_fallback ->
    t.st.s_rec_tableau <- t.st.s_rec_tableau + 1;
    let sol = Tableau.solve (to_problem t) in
    let sol = { sol with Status.iterations = t.iters } in
    t.fallback <- Some sol;
    Final sol.Status.status

let solve t =
  t.fallback <- None;
  t.solving <- true;
  t.deadline <-
    (if t.time_budget = infinity then infinity
     else Clock.now () +. t.time_budget);
  let rec_total t =
    t.st.s_rec_refactor + t.st.s_rec_tol + t.st.s_rec_perturb
    + t.st.s_rec_tableau
  in
  (* entry counters, so re-solves on a live engine report deltas *)
  let m0_iters = t.iters
  and m0_flips = t.st.s_flips
  and m0_ftrans = t.ops.Basis.ftrans
  and m0_btrans = t.ops.Basis.btrans
  and m0_hftrans = t.ops.Basis.hyper_ftrans
  and m0_hbtrans = t.ops.Basis.hyper_btrans
  and m0_rec = rec_total t in
  let finish status =
    t.solving <- false;
    t.last_status <- status;
    if Metrics.enabled () then begin
      let d c0 c1 = float_of_int (c1 - c0) in
      Metrics.incr m_solves;
      Metrics.incr ~by:(d m0_iters t.iters) m_iterations;
      Metrics.incr ~by:(d m0_flips t.st.s_flips) m_bound_flips;
      Metrics.incr ~by:(d m0_ftrans t.ops.Basis.ftrans) m_ftrans;
      Metrics.incr ~by:(d m0_btrans t.ops.Basis.btrans) m_btrans;
      Metrics.incr ~by:(d m0_hftrans t.ops.Basis.hyper_ftrans) m_hyper_ftrans;
      Metrics.incr ~by:(d m0_hbtrans t.ops.Basis.hyper_btrans) m_hyper_btrans;
      Metrics.incr ~by:(d m0_rec (rec_total t)) m_recoveries
    end;
    status
  in
  let run () =
    (* a stale factorisation (rows added since the last solve) must be
       rebuilt before anything consults the basis *)
    if t.needs_factor then refactor t;
    (* warm-started row growth skipped that rebuild; give the solve the
       same starting hygiene a refactorisation provides — exact basic
       values and a fresh anti-cycling state. The live
       factorisation is kept unless its trail has grown heavier than the
       LU itself, in which case rebuilding now is cheaper than dragging
       the trail through the whole re-solve. *)
    if t.xb_stale then begin
      t.xb_stale <- false;
      if trail_heavy t then refactor t
      else begin
        t.degen_streak <- 0;
        t.bland <- false;
        recompute_xb t
      end
    end;
    let s = drive t in
    if s = Status.Optimal then validate_solution t;
    s
  in
  let guard f =
    match f () with
    | v -> Ok v
    | exception e -> (
      match recoverable e with
      | Some reason -> Error reason
      | None ->
        t.solving <- false;
        raise e)
  in
  (* The ladder: each numerical failure consumes the next stage, then the
     whole solve is retried. Stages that themselves fail numerically are
     skipped. An empty (or exhausted) ladder is a hard failure. *)
  let rec attempt stages =
    match guard run with
    | Ok s -> s
    | Error _ -> escalate stages
  and escalate = function
    | [] -> Status.Numerical_failure
    | stage :: rest -> (
      match guard (fun () -> apply_stage t stage) with
      | Ok Retry -> attempt rest
      | Ok (Final s) -> s
      | Error _ -> escalate rest)
  in
  let status =
    if Trace.enabled () then
      Trace.span "simplex.solve" (fun () -> attempt t.p.recovery)
    else attempt t.p.recovery
  in
  finish status

let set_time_limit t seconds = t.time_budget <- seconds

let used_fallback t = t.fallback <> None

(* ------------------------------------------------------------------ *)
(* Warm-basis snapshots                                                *)
(* ------------------------------------------------------------------ *)

type warm_basis = {
  wb_nvars : int;
  wb_nrows : int;
  wb_basic : int array;
  wb_nonbasic : string;
}

type basis_mismatch = {
  bm_expected_vars : int;
  bm_expected_rows : int;
  bm_got_vars : int;
  bm_got_rows : int;
  bm_reason : string;
}

let pp_basis_mismatch fmt bm =
  Format.fprintf fmt "basis mismatch: %s (engine %dx%d, snapshot %dx%d)"
    bm.bm_reason bm.bm_expected_rows bm.bm_expected_vars bm.bm_got_rows
    bm.bm_got_vars

let warm_basis t =
  let total = t.n + t.m in
  let statuses = Bytes.create total in
  for j = 0 to total - 1 do
    Bytes.set statuses j
      (match t.vstat.(j) with
      | Basic _ -> 'b'
      | At_lower -> 'l'
      | At_upper -> 'u'
      | Free_zero -> 'f')
  done;
  {
    wb_nvars = t.n;
    wb_nrows = t.m;
    wb_basic = Array.sub t.basic 0 t.m;
    wb_nonbasic = Bytes.unsafe_to_string statuses;
  }

(* The always-valid fallback start: every auxiliary variable basic in its
   own row (B = -I), structurals at their [initial_vstat] bound. This is
   exactly the basis [of_problem] builds, so reinstalling it after a failed
   warm install returns the engine to a known-good cold state. *)
let install_slack_basis t =
  for j = 0 to t.n - 1 do
    t.vstat.(j) <- initial_vstat t.lo.(j) t.up.(j)
  done;
  for i = 0 to t.m - 1 do
    t.basic.(i) <- t.n + i;
    t.vstat.(t.n + i) <- Basic i
  done;
  t.needs_factor <- true;
  refactor t

let install_warm_basis t wb =
  let mismatch reason =
    Error
      {
        bm_expected_vars = t.n;
        bm_expected_rows = t.m;
        bm_got_vars = wb.wb_nvars;
        bm_got_rows = wb.wb_nrows;
        bm_reason = reason;
      }
  in
  let total = t.n + t.m in
  if wb.wb_nvars <> t.n then mismatch "structural variable count differs"
  else if wb.wb_nrows <> t.m then mismatch "row count differs"
  else if Array.length wb.wb_basic <> t.m then
    mismatch "basic array length disagrees with row count"
  else if String.length wb.wb_nonbasic <> total then
    mismatch "status string length disagrees with variable count"
  else begin
    (* validate before mutating anything: indices in range, no duplicate
       basic variable, statuses consistent with the basic set *)
    let seen = Array.make total false in
    let bad = ref None in
    let fail reason = if !bad = None then bad := Some reason in
    Array.iter
      (fun b ->
        if b < 0 || b >= total then fail "basic variable index out of range"
        else if seen.(b) then fail "duplicate basic variable"
        else begin
          seen.(b) <- true;
          if wb.wb_nonbasic.[b] <> 'b' then
            fail "basic variable not marked basic in status string"
        end)
      wb.wb_basic;
    String.iteri
      (fun j c ->
        match c with
        | 'b' -> if not seen.(j) then fail "stray basic status marker"
        | 'l' | 'u' | 'f' -> ()
        | _ -> fail "unknown status marker")
      wb.wb_nonbasic;
    match !bad with
    | Some reason -> mismatch reason
    | None ->
      for j = 0 to total - 1 do
        t.vstat.(j) <-
          (match wb.wb_nonbasic.[j] with
          | 'l' when t.lo.(j) > neg_infinity -> At_lower
          | 'u' when t.up.(j) < infinity -> At_upper
          | 'l' | 'u' ->
            (* the bound this status rested on is no longer finite (an ECO
               edit relaxed it): coerce to a valid nonbasic state *)
            initial_vstat t.lo.(j) t.up.(j)
          | 'f' -> Free_zero
          | _ -> Free_zero (* 'b': overwritten below *))
      done;
      Array.iteri
        (fun r b ->
          t.basic.(r) <- b;
          t.vstat.(b) <- Basic r)
        wb.wb_basic;
      t.fallback <- None;
      t.last_status <- Status.Iteration_limit;
      t.needs_factor <- true;
      (* factorise now, so a singular warm basis surfaces here: it is the
         snapshot's fault, not the engine's — reinstall the all-slack
         basis and report the mismatch. *)
      (match refactor t with
      | () -> Ok ()
      | exception e -> (
        match recoverable e with
        | Some reason ->
          install_slack_basis t;
          mismatch (Printf.sprintf "warm basis not factorisable: %s" reason)
        | None -> raise e))
  end

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

(* When the Tableau_fallback stage produced the answer, the engine's own
   basis is untrustworthy: every extractor reads the stored independent
   solution instead. *)

let primal t =
  match t.fallback with
  | Some s -> Array.copy s.Status.primal
  | None -> Array.init t.n (fun j -> value t j)

let row_activity t =
  match t.fallback with
  | Some s -> Array.copy s.Status.row_activity
  | None -> Array.init t.m (fun i -> value t (t.n + i))

let objective t =
  match t.fallback with
  | Some s -> s.Status.objective
  | None ->
    let acc = ref 0.0 in
    for j = 0 to t.n - 1 do
      if t.obj.(j) <> 0.0 then acc := !acc +. (t.obj.(j) *. value t j)
    done;
    !acc

let dual t =
  match t.fallback with
  | Some s -> Array.copy s.Status.dual
  | None ->
    fill_cb_phase2 t;
    compute_y t t.cb;
    Array.sub t.y 0 t.m

let reduced_cost t j =
  assert (j >= 0 && j < t.n);
  fill_cb_phase2 t;
  compute_y t t.cb;
  t.obj.(j) -. col_dot t j t.y

let reduced_cost_drift t =
  if not t.d_valid then None
  else begin
    fill_cb_phase2 t;
    compute_y t t.cb;
    let worst = ref 0.0 in
    for j = 0 to t.n + t.m - 1 do
      match t.vstat.(j) with
      | Basic _ -> ()
      | _ when is_fixed t j -> ()
      | At_lower | At_upper | Free_zero ->
        let fresh = t.obj.(j) -. col_dot t j t.y in
        let err = abs_float (t.d.(j) -. fresh) /. (1.0 +. abs_float t.obj.(j)) in
        if err > !worst then worst := err
    done;
    Some !worst
  end

let solution t =
  match t.fallback with
  | Some s -> { s with Status.status = t.last_status; iterations = t.iters }
  | None ->
    {
      Status.status = t.last_status;
      objective = objective t;
      primal = primal t;
      row_activity = row_activity t;
      dual = dual t;
      iterations = t.iters;
    }

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let stats t =
  {
    iterations = t.iters;
    phase1_iterations = t.st.s_phase1_iters;
    phase2_iterations = t.st.s_phase2_iters;
    dual_iterations = t.st.s_dual_iters;
    bound_flips = t.st.s_flips;
    full_pricing_scans = t.st.s_full_scans;
    ftran_count = t.ops.Basis.ftrans;
    btran_count = t.ops.Basis.btrans;
    hyper_sparse_ftrans = t.ops.Basis.hyper_ftrans;
    hyper_sparse_btrans = t.ops.Basis.hyper_btrans;
    basis_updates = t.ops.Basis.updates;
    basis_extensions = t.ops.Basis.extensions;
    refactorisations = t.ops.Basis.factorisations;
    degenerate_pivots = t.st.s_degen;
    bland_activations = t.st.s_bland;
    recoveries =
      {
        refactor_retries = t.st.s_rec_refactor;
        tolerance_escalations = t.st.s_rec_tol;
        perturbed_resolves = t.st.s_rec_perturb;
        tableau_fallbacks = t.st.s_rec_tableau;
        faults_injected = t.st.s_injected;
        validations_rejected = t.st.s_rejected;
      };
  }

let zero_stats =
  {
    iterations = 0;
    phase1_iterations = 0;
    phase2_iterations = 0;
    dual_iterations = 0;
    bound_flips = 0;
    full_pricing_scans = 0;
    ftran_count = 0;
    btran_count = 0;
    hyper_sparse_ftrans = 0;
    hyper_sparse_btrans = 0;
    basis_updates = 0;
    basis_extensions = 0;
    refactorisations = 0;
    degenerate_pivots = 0;
    bland_activations = 0;
    recoveries = no_recoveries;
  }

let merge_recoveries a b =
  {
    refactor_retries = a.refactor_retries + b.refactor_retries;
    tolerance_escalations = a.tolerance_escalations + b.tolerance_escalations;
    perturbed_resolves = a.perturbed_resolves + b.perturbed_resolves;
    tableau_fallbacks = a.tableau_fallbacks + b.tableau_fallbacks;
    faults_injected = a.faults_injected + b.faults_injected;
    validations_rejected = a.validations_rejected + b.validations_rejected;
  }

let merge_stats a b =
  {
    iterations = a.iterations + b.iterations;
    phase1_iterations = a.phase1_iterations + b.phase1_iterations;
    phase2_iterations = a.phase2_iterations + b.phase2_iterations;
    dual_iterations = a.dual_iterations + b.dual_iterations;
    bound_flips = a.bound_flips + b.bound_flips;
    full_pricing_scans = a.full_pricing_scans + b.full_pricing_scans;
    ftran_count = a.ftran_count + b.ftran_count;
    btran_count = a.btran_count + b.btran_count;
    hyper_sparse_ftrans = a.hyper_sparse_ftrans + b.hyper_sparse_ftrans;
    hyper_sparse_btrans = a.hyper_sparse_btrans + b.hyper_sparse_btrans;
    basis_updates = a.basis_updates + b.basis_updates;
    basis_extensions = a.basis_extensions + b.basis_extensions;
    refactorisations = a.refactorisations + b.refactorisations;
    degenerate_pivots = a.degenerate_pivots + b.degenerate_pivots;
    bland_activations = a.bland_activations + b.bland_activations;
    recoveries = merge_recoveries a.recoveries b.recoveries;
  }

let pp_stats fmt s =
  Format.fprintf fmt
    "@[<v>iterations: %d (phase1 %d, phase2 %d, dual %d), bound flips: %d@,\
     pricing scans: %d@,\
     ftran/btran: %d/%d (hyper-sparse %d/%d), basis updates: %d, \
     extensions: %d, refactorisations: %d@,\
     degenerate pivots: %d, Bland activations: %d"
    s.iterations s.phase1_iterations s.phase2_iterations s.dual_iterations
    s.bound_flips s.full_pricing_scans s.ftran_count
    s.btran_count s.hyper_sparse_ftrans s.hyper_sparse_btrans s.basis_updates
    s.basis_extensions s.refactorisations s.degenerate_pivots
    s.bland_activations;
  let r = s.recoveries in
  Format.fprintf fmt
    "@,recoveries: %d refactor, %d tolerance, %d perturb, %d tableau; \
     faults injected: %d, validations rejected: %d"
    r.refactor_retries r.tolerance_escalations
    r.perturbed_resolves r.tableau_fallbacks r.faults_injected
    r.validations_rejected;
  Format.fprintf fmt "@]"
