(** Bench regression gate: compare two [lubt-bench/*] JSON files.

    [bench timing --json] writes one machine-readable record per
    benchmark (ms/run plus solver counters). This module diffs two
    such files — typically a committed baseline (BENCH_lp.json)
    against a fresh run — and classifies each benchmark's timing
    delta against a threshold, so CI can fail on a regression
    instead of a human eyeballing numbers.

    Timing verdicts use [ms_per_run] only. Solver counters
    (iterations, pricing scans, refactorisations, ...) are diffed
    exactly and reported, but never gate: on identical code they are
    deterministic, so any counter drift is surfaced loudly — it means
    the pivot trajectory changed — while wall-clock noise does not
    produce false counter alarms. A counter the old record has and the
    new one lacks is printed as ["MISSING from new run"], like a lost
    benchmark, and fails the gate the same way.

    Benchmarks whose name ends in [_count] or [_rate] (the serve
    robustness counters and the warm-start cache hit rate) carry a
    workload statistic in the [ms_per_run] slot, not a timing: they
    are always [Unchanged] — their drift is printed as
    ["drift (not gated)"] but can never fail the gate, since the
    statistic legitimately shifts with the load mix (a cold cache, a
    different chaos seed).

    Benchmarks whose name ends in [_p50], [_p95] or [_p99] (the serve
    latency quantiles, client- and server-side) are {b SLO entries}:
    tail latencies are service contracts worth gating, but they are
    far noisier than steady-state ms/run, so they use their own wider
    relative threshold and higher absolute floor ([slo_threshold],
    [slo_floor_ms]). An SLO breach is a [Regression] like any other
    (it fails the gate) and prints as ["SLO REGRESSION"]. *)

type verdict =
  | Regression  (** new ms/run above old by more than the threshold *)
  | Improvement  (** new ms/run below old by more than the threshold *)
  | Unchanged  (** within the threshold either way *)

type entry_delta = {
  d_name : string;
  d_old_ms : float;
  d_new_ms : float;
  d_ratio : float;  (** new / old *)
  d_verdict : verdict;
  d_counters : (string * float * float) list;
      (** solver counters whose values differ: (name, old, new).
          Nested recovery counters are reported as
          ["recoveries.<field>"]. *)
  d_lost_counters : string list;
      (** solver counters present in the old record but absent from the
          new one, named as in [d_counters] *)
}

type report = {
  r_threshold : float;  (** the gate, as a fraction (0.10 = 10%) *)
  r_abs_floor_ms : float;  (** the absolute-delta floor, milliseconds *)
  r_slo_threshold : float;  (** the SLO-entry gate, as a fraction *)
  r_slo_floor_ms : float;  (** the SLO absolute-delta floor, ms *)
  r_deltas : entry_delta list;  (** benchmarks present in both files *)
  r_only_old : string list;  (** benchmarks missing from the new file *)
  r_only_new : string list;  (** benchmarks missing from the old file *)
}

val compare :
  ?threshold:float -> ?abs_floor_ms:float -> ?slo_threshold:float ->
  ?slo_floor_ms:float -> string -> string ->
  (report, string) result
(** [compare old_json new_json] parses two bench-JSON strings and
    diffs them. [threshold] is the relative timing gate (default
    [0.10] = 10%). [abs_floor_ms] (default [0.05]) clamps the ratio
    gate: a delta of at most that many milliseconds is always
    [Unchanged], and when the old entry is zero or non-finite — where
    the ratio degenerates to [inf]/[nan] — the verdict falls back to
    the sign of the absolute delta instead of failing spuriously.
    [slo_threshold] (default [0.50] = 50%) and [slo_floor_ms] (default
    [1.0]) play the same two roles for SLO entries ([_p50]/[_p95]/
    [_p99] suffixes). A [null] ms/run (the bench writer's encoding of
    nan — e.g. an unobservable hit rate against an external daemon)
    parses as nan and can never produce a verdict. [Error] reports a
    parse or schema problem with the offending file named. *)

val compare_files :
  ?threshold:float -> ?abs_floor_ms:float -> ?slo_threshold:float ->
  ?slo_floor_ms:float -> string -> string ->
  (report, string) result
(** [compare_files old_path new_path] reads and {!compare}s two files. *)

val regressions : report -> entry_delta list

val has_regression : report -> bool
(** True when any benchmark regressed, or when a benchmark or a solver
    counter present in the old file is missing from the new one (losing
    coverage must not pass silently). *)

val print : out_channel -> report -> unit
(** Renders the delta table: one line per benchmark with old/new
    ms/run, the ratio, the verdict, and any counter drift indented
    beneath. *)
