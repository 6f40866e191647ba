(** Revised bounded-variable simplex engine.

    The engine keeps the LP in the GLPK-style computational form: every row
    [i] of the model gets an auxiliary variable [x_aux_i] tied by
    [a_i^T x_struct - x_aux_i = 0], so the equality system is
    [\[A | -I\] x = 0] and all row bounds become bounds on auxiliary
    variables. The initial all-auxiliary basis is always nonsingular
    ([B = -I]).

    Three algorithms are provided on the same state:
    - primal phase I (drives the total bound violation of basic variables
      to zero),
    - primal phase II (optimises from a primal-feasible basis),
    - dual simplex (optimises from a dual-feasible basis; this is the
      workhorse for the EBF LPs, whose all-slack start is dual feasible,
      and for warm restarts after rows are added).

    There is one basis representation, a sparse LU factorisation plus an
    eta trail ({!Basis}), and one primal pricing rule: Dantzig's
    largest-reduced-cost full scan, with Bland's rule as the
    anti-cycling escape. The dual simplex (bound-flipping ratio test) does
    almost every pivot of every workload in this repository; the primal
    phases only finish the LPs whose starting basis is not dual feasible.

    Rows can be appended between solves ([add_row]); the factorised basis is
    extended in O(m x nnz) and stays dual feasible, so re-optimisation is a
    short dual-simplex run. This implements the paper's Section 4.6
    constraint-reduction strategy as exact lazy row generation.

    {b Domain safety.} The engine keeps no global mutable state: every
    working array, the basis factorisation, the {!Basis.counters} record
    and the {!stats} mirror are owned by the [t] value returned by
    {!of_problem}. Concurrent [solve] calls on {e distinct} engines from
    different domains are therefore safe and produce the same results as
    sequential calls (the batch layer {!Lubt_util.Pool} relies on this;
    cross-checked in [test/test_pool.ml]). A single [t] must not be
    shared between domains without external synchronisation: its
    factorisation ({!Lu}, {!Basis}) solves in a workspace it owns and is
    not reentrant, and it never leaves the engine. *)

type t
(** A loaded LP engine: problem snapshot, current basis and its
    factorisation, and cumulative telemetry. Create with {!of_problem};
    all mutation goes through {!solve}, {!add_row} and
    {!set_time_limit}. *)

(** Where a deterministic fault is injected (testing only). *)
type fault_kind =
  | Fault_singular_refactor
      (** a basis refactorisation raises as if the basis were singular *)
  | Fault_perturb_ftran
      (** one component of an ftran result gets a large relative error,
          corrupting subsequent pivots until validation catches it *)
  | Fault_zero_pivot
      (** a basis update raises {!Basis.Zero_pivot} as if the pivot
          entry were numerically zero *)

type fault = {
  fault_seed : int;  (** seed of the private splitmix64 fault stream *)
  fault_kinds : fault_kind list;  (** which sites may fire *)
  fault_rate : float;  (** firing probability per eligible call site *)
  max_faults : int;
      (** lifetime cap per engine, so recovery retries eventually run
          clean *)
}

val fault_plan :
  ?kinds:fault_kind list -> ?rate:float -> ?max_faults:int -> int -> fault
(** [fault_plan seed] is a fault configuration with all kinds enabled,
    [rate = 0.25] and [max_faults = 3]. Faults fire only during [solve],
    never while loading or adding rows, and identically for identical
    (problem, seed) pairs. *)

(** One rung of the numerical-recovery ladder. *)
type recovery_stage =
  | Refactor_retry  (** rebuild the basis factorisation and retry *)
  | Tighten_pivot_tol
      (** escalate the pivot tolerance by 100x (capped at 1e-5), making
          the ratio tests refuse the near-zero pivots that broke the
          factorisation *)
  | Perturb_and_resolve
      (** relax all finite bounds outward by a seeded relative ~1e-7
          noise, drive to optimality on the perturbed problem to escape
          the degenerate vertex, then restore the exact bounds and
          re-solve cleanly *)
  | Tableau_fallback
      (** last resort: hand the reconstructed model to the independent
          dense {!Tableau} oracle and serve its solution (dual values are
          zeros; see {!used_fallback}) *)

val default_recovery : recovery_stage list
(** All four stages in the order above. *)

type params = {
  max_iters : int;  (** 0 means choose automatically from the size *)
  time_limit : float;
      (** wall-clock budget in seconds per [solve] call; [infinity]
          (the default) disables it. On expiry [solve] returns
          {!Status.Time_limit} with the best basis reached so far. *)
  tol_feas : float;  (** absolute primal feasibility tolerance *)
  tol_dual : float;  (** reduced-cost optimality tolerance *)
  tol_pivot : float;  (** smallest acceptable pivot magnitude *)
  refactor_every : int;  (** pivots between basis refactorisations *)
  bound_flips : bool;
      (** bound-flipping (long-step) dual ratio test: boxed nonbasic
          columns whose breakpoint cannot absorb the remaining primal
          violation flip to their opposite bound without a basis change,
          letting one dual pivot pass many breakpoints (default [true]).
          The dominant move for box-constrained edge-length variables. *)
  warm_start : bool;
      (** keep the factorised basis alive across {!add_row} calls by
          appending a border row to the live factorisation instead of
          marking it for refactorisation (default [true]). This is the
          one switch for cross-round warm starts: the EBF row-generation
          loop reads it from its [lp_params]. *)
  bland_threshold : int;
      (** consecutive degenerate pivots tolerated before the anti-cycling
          escape switches to Bland's rule (default 1000). The switch
          reverts after the next non-degenerate pivot or basis
          refactorisation. *)
  recovery : recovery_stage list;
      (** the numerical-recovery ladder, consumed left to right: each
          numerical failure (singular factorisation, zero pivot,
          post-solve validation reject) applies the next stage and
          retries the solve; an exhausted (or empty) ladder yields
          {!Status.Numerical_failure}. Default {!default_recovery}. *)
  fault : fault option;  (** deterministic fault injection (default [None]) *)
}

val default_params : params
(** Bound flips on, warm starts on, [refactor_every = 100],
    [tol_feas = 1e-7], [tol_dual = tol_pivot = 1e-9], automatic
    iteration cap, no time limit, full recovery ladder, no fault
    injection. This is the configuration the EBF solves run. *)

type recoveries = {
  refactor_retries : int;
  tolerance_escalations : int;
  perturbed_resolves : int;
  tableau_fallbacks : int;
  faults_injected : int;  (** faults actually fired (testing) *)
  validations_rejected : int;
      (** optimal bases rejected by the post-solve check, which reads
          only the original column data, never the factorisation *)
}
(** Recovery-ladder telemetry; all zero on a numerically clean solve. *)

val no_recoveries : recoveries
(** The all-zero record a numerically clean solve reports. *)

val recovery_attempts : recoveries -> int
(** Total ladder stages applied (sum of the four stage counters;
    excludes [faults_injected] and [validations_rejected]). *)

type stats = {
  iterations : int;  (** total simplex pivots over the engine's lifetime *)
  phase1_iterations : int;
  phase2_iterations : int;
  dual_iterations : int;
  bound_flips : int;
      (** nonbasic bound flips performed by the long-step dual ratio
          test (not counted as iterations — no basis change) *)
  full_pricing_scans : int;
      (** full-column scans: primal pricing passes plus dual ratio scans
          (each inspects all [n + m] columns) *)
  ftran_count : int;  (** forward solves [B^-1 a] *)
  btran_count : int;  (** transpose solves [B^-T c] *)
  hyper_sparse_ftrans : int;
      (** ftrans that took the hyper-sparse reach-based kernel *)
  hyper_sparse_btrans : int;  (** btrans on the hyper-sparse kernel *)
  basis_updates : int;  (** rank-1 / eta updates applied *)
  basis_extensions : int;
      (** rows appended to a live factorisation by warm-started
          {!add_row} (with [warm_start]) *)
  refactorisations : int;  (** basis factorisations from scratch *)
  degenerate_pivots : int;  (** pivots with (numerically) zero step *)
  bland_activations : int;  (** times the anti-cycling escape engaged *)
  recoveries : recoveries;  (** numerical-recovery telemetry *)
}
(** Cumulative solver counters, preserved across warm restarts ([add_row] +
    re-[solve]); read them with {!stats} at any point. Counter fields are
    valid from engine creation onwards (all zero before the first
    [solve]). Phase wall time is not a counter: it is the duration of the
    [simplex.phase1]/[phase2]/[dual] trace spans. The [recoveries] field
    is only meaningful after [solve] has returned — a recovery in
    progress is not yet counted. *)

val zero_stats : stats
(** All-zero counters: the identity of {!merge_stats} and the natural
    accumulator seed for batch aggregation. *)

val merge_stats : stats -> stats -> stats
(** [merge_stats a b] sums every counter (and the nested
    {!recoveries}) component-wise. Commutative and associative with
    {!zero_stats} as identity, so per-worker telemetry from a
    domain-parallel sweep can be folded in any order into one
    whole-corpus record, as [Lubt_experiments.Batch] does. *)

val of_problem : ?params:params -> Problem.t -> t
(** Loads a model. The engine takes a snapshot: later changes to the
    [Problem.t] are not seen (use [add_row] to grow the engine itself). *)

val solve : t -> Status.t
(** Runs the appropriate algorithm(s) from the current basis and returns the
    final status. Idempotent once optimal.

    Numerical failures (singular refactorisation, zero pivots, a rejected
    post-solve validation) do not escape: they walk the
    {!params}[.recovery] ladder, and only an exhausted ladder returns
    {!Status.Numerical_failure}. Every optimal claim is validated against
    the original column data before being returned. *)

val set_time_limit : t -> float -> unit
(** Overrides the wall-clock budget (seconds) for subsequent [solve] calls;
    [infinity] disables, a non-positive value makes the next solve return
    {!Status.Time_limit} immediately. Used by callers that spread one
    budget over several warm restarts. *)

val used_fallback : t -> bool
(** Whether the last [solve] was answered by the {!Tableau_fallback} stage.
    If so, {!dual} returns zeros (the oracle does not produce multipliers)
    and callers should not demand dual certificates. *)

val to_problem : t -> Problem.t
(** Reconstructs a standalone model equal to the engine's current one,
    including rows appended with [add_row] (diagnostics / oracles). *)

val add_row : t -> lo:float -> up:float -> (int * float) list -> unit
(** Appends a constraint row over structural variables. The engine stays
    dual feasible; call [solve] to re-optimise (it will run the dual
    simplex). With {!params}[.warm_start] the live factorisation is extended by a border row (counted in
    [basis_extensions]) so the re-solve skips the refactorisation;
    otherwise the basis is refactorised at the next [solve]. *)

type warm_basis = {
  wb_nvars : int;  (** structural variable count of the source engine *)
  wb_nrows : int;  (** row count of the source engine *)
  wb_basic : int array;
      (** row [r] was occupied by variable [wb_basic.(r)] (auxiliary
          variables use the [nvars + row] convention) *)
  wb_nonbasic : string;
      (** one status marker per variable over [wb_nvars + wb_nrows]:
          ['b'] basic, ['l'] at lower bound, ['u'] at upper bound,
          ['f'] free at zero *)
}
(** A self-contained snapshot of a basis: which variable occupies each row
    and the bound status of every nonbasic variable. Plain data — it holds
    no factorisation and no pointer into the engine, so it can be stored,
    serialised and installed into a {e different} engine of the same shape
    (the cross-request cache {!Basis_cache} does both). *)

type basis_mismatch = {
  bm_expected_vars : int;  (** structural variables of the target engine *)
  bm_expected_rows : int;  (** rows of the target engine *)
  bm_got_vars : int;  (** structural variables recorded in the snapshot *)
  bm_got_rows : int;  (** rows recorded in the snapshot *)
  bm_reason : string;  (** human-readable cause *)
}
(** Why {!install_warm_basis} refused (or failed to factorise) a snapshot.
    Dimension disagreements — the classic stale-cache hazard when an ECO
    edit added or removed a sink — are always rejected through this type,
    never mapped silently. *)

val pp_basis_mismatch : Format.formatter -> basis_mismatch -> unit
(** One-line rendering of a {!basis_mismatch} for logs and error JSON. *)

val warm_basis : t -> warm_basis
(** Snapshots the engine's current basis. Callers that intend to reuse the
    snapshot should take it only after [solve] returned {!Status.Optimal}
    with {!used_fallback}[ = false] — a fallback answer leaves the engine
    basis untrustworthy. *)

val install_warm_basis : t -> warm_basis -> (unit, basis_mismatch) result
(** Installs a snapshot taken from an engine of identical shape (same
    variable and row counts; typically the same model with edited bounds).
    The snapshot is validated first — dimensions, index ranges, duplicate
    basic variables, status consistency — and rejected with [Error] before
    any engine state changes. Statuses resting on bounds that are no longer
    finite are coerced to a valid nonbasic state. On success the basis is
    factorised immediately and the next [solve] warm-starts from it (for
    bound-only edits the basis stays dual feasible, so re-optimisation is a
    short dual-simplex run). A snapshot that passes validation but proves
    singular to factorise also returns [Error], after the engine has been
    restored to its all-slack cold-start basis — an [Error] therefore
    always leaves the engine in a valid, solvable state. *)

val nrows : t -> int
(** Number of constraint rows currently loaded (including rows appended
    with {!add_row}). *)

val nvars : t -> int
(** Number of structural variables. *)

val objective : t -> float
(** Objective value of the current basis. Only a certified optimum after
    [solve] returned {!Status.Optimal}; mid-ladder or after a time limit
    it is simply the value of the basis reached. *)

val primal : t -> float array
(** Structural variable values of the current basis. *)

val row_activity : t -> float array
(** [a_i^T x] per row for the current basis (length {!nrows}). *)

val dual : t -> float array
(** Simplex multipliers [y] (one per row) of the current basis. *)

val reduced_cost : t -> int -> float
(** Reduced cost of a structural variable in the current basis. *)

val reduced_cost_drift : t -> float option
(** Cross-check of the dual simplex's incrementally updated reduced
    costs: the largest [|d_j - (c_j - a_j^T y)| / (1 + |c_j|)] over the
    non-fixed nonbasic columns, with [y] from a fresh BTRAN (which the
    linear-algebra counters record). [None] while the engine keeps no
    reduced costs, i.e. outside a dual simplex run. Meant for tests,
    typically from a {!probe} during the ["dual"] phase. *)

val iterations : t -> int
(** Total simplex pivots over the engine's lifetime (equals
    [(stats t).iterations]). *)

val stats : t -> stats
(** Snapshot of the cumulative solver counters. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable rendering of a counters snapshot, including
    the [bound_flips] counter and the nested {!recoveries} record (the
    recovery line is always printed, zeros included, so [--stats]
    consumers see a stable shape). *)

type probe_event = {
  pr_iteration : int;  (** {!iterations} after the pivot (or at the
                           recovery event) *)
  pr_phase : string;
      (** ["phase1"], ["phase2"], ["dual"], or ["recovery"] *)
  pr_objective : float;  (** objective of the current (possibly
                             infeasible) point *)
  pr_primal_infeas : float;  (** total bound violation of basic variables *)
  pr_dual_infeas : float;
      (** worst reduced-cost violation over nonbasic columns; [nan] on
          recovery events, where the factorisation is not trusted *)
  pr_entering : int;
      (** entering variable index (auxiliary of row [i] is [nvars + i]);
          [-1] when none (pure bound flip, recovery event) *)
  pr_leaving : int;  (** leaving variable index; [-1] when none *)
  pr_eta_count : int;  (** basis updates since the last refactorisation *)
  pr_bound_flips : int;  (** cumulative long-step bound flips *)
  pr_recovery : string option;
      (** recovery-ladder stage name when this event marks a stage
          engaging, [None] on ordinary pivots *)
}
(** One observation of the per-iteration convergence probe. *)

type probe = probe_event -> unit

val set_probe : t -> probe option -> unit
(** Installs (or removes) a per-iteration probe. The probe fires after
    every primal or dual pivot and when a recovery stage engages; dump the
    events as JSON lines with [Lubt_obs.Convergence].

    The probe is {e observational but not free}: computing the dual
    infeasibility costs one extra BTRAN plus a column scan per pivot, and
    those solves are counted in the shared {!stats} counters — so an
    engine with a probe installed reports more [btran_count] than the
    same solve unobserved. With no probe installed ([None], the default)
    the engine's counters, pivots and results are bit-identical to an
    uninstrumented build. *)

val solution : t -> Status.solution
(** Packages the current state (status as of the last [solve]). *)

val check_consistency : t -> float
(** Recomputes basic values from scratch and returns the largest absolute
    discrepancy with the incrementally maintained ones (diagnostics). *)
