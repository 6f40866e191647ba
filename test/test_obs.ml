(* Tests for the observability layer (lubt.obs): the JSON
   parser/printer, span balance of the trace recorder under
   exceptions, the Chrome trace-event field contract, per-domain
   thread ids under a Pool-parallel workload, convergence-probe
   JSON-lines, the disabled-tracing determinism contract of the
   solver, and the bench-diff regression gate (library verdicts and
   the bench exe's exit codes). *)

module Json = Lubt_obs.Json
module Clock = Lubt_obs.Clock
module Trace = Lubt_obs.Trace
module Chrome_trace = Lubt_obs.Chrome_trace
module Log = Lubt_obs.Log
module Convergence = Lubt_obs.Convergence
module Bench_diff = Lubt_experiments.Bench_diff
module Pool = Lubt_util.Pool
module Benchmarks = Lubt_data.Benchmarks
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Simplex = Lubt_lp.Simplex
module Bst = Lubt_bst.Bst_dme

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Num 1.5;
      Json.Num (-3.0);
      Json.Str "a\"b\\c\nd";
      Json.Arr [ Json.Num 1.0; Json.Str "x"; Json.Null ];
      Json.Obj
        [ ("k", Json.Arr []); ("nested", Json.Obj [ ("b", Json.Bool false) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      Alcotest.(check bool)
        ("printer output passes the independent checker: " ^ s)
        true (Json_check.json_valid s);
      match Json.parse s with
      | Ok v' ->
        Alcotest.(check bool) ("roundtrip: " ^ s) true (v = v')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e)
    cases

let test_json_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Ok _ -> Alcotest.failf "accepted malformed %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\": }"; "{} {}"; "nan"; "'s'"; "tru" ]

let test_json_accessors () =
  let j = Json.parse_exn {|{"a": {"b": [1, 2.5]}, "s": "x"}|} in
  let b = Option.bind (Json.member "a" j) (Json.member "b") in
  (match Option.bind b Json.arr with
  | Some [ Json.Num 1.0; Json.Num 2.5 ] -> ()
  | _ -> Alcotest.fail "nested member/arr access");
  Alcotest.(check (option string))
    "str member" (Some "x")
    (Option.bind (Json.member "s" j) Json.str);
  Alcotest.(check bool) "missing member" true (Json.member "zz" j = None)

(* ------------------------------------------------------------------ *)
(* Trace recorder                                                      *)
(* ------------------------------------------------------------------ *)

let spans events = List.filter (fun (e : Trace.event) ->
    match e.Trace.kind with Trace.Span _ -> true | _ -> false) events

let test_trace_disabled_records_nothing () =
  Trace.stop ();
  Trace.instant "nope";
  Trace.complete ~t0:(Clock.now ()) "nope";
  ignore (Trace.span "nope" (fun () -> 42));
  Trace.start ();
  (* only events recorded after start are retained *)
  let before = List.length (Trace.events ()) in
  Trace.stop ();
  Alcotest.(check int) "no events survive from the disabled period" 0 before

let test_trace_span_balance_under_exceptions () =
  Trace.start ();
  (try
     Trace.span "outer" (fun () ->
         Trace.span "inner" (fun () -> failwith "boom"))
   with Failure _ -> ());
  let evs = Trace.events () in
  Trace.stop ();
  let names = List.map (fun (e : Trace.event) -> e.Trace.name) (spans evs) in
  Alcotest.(check (list string))
    "both spans emitted despite the raise (inner completes first)"
    [ "inner"; "outer" ]
    (List.sort Stdlib.compare names);
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Span d ->
        Alcotest.(check bool) "span duration is non-negative" true (d >= 0.0)
      | _ -> ())
    evs

let test_trace_ring_wraps () =
  Trace.start ~capacity:8 ();
  for i = 0 to 19 do
    Trace.instant ~args:[ ("i", Trace.Int i) ] "tick"
  done;
  let evs = Trace.events () in
  let dropped = Trace.dropped () in
  Trace.stop ();
  Alcotest.(check int) "ring retains capacity events" 8 (List.length evs);
  Alcotest.(check int) "drop counter" 12 dropped;
  (* the retained events are the newest ones *)
  let is = List.filter_map (fun (e : Trace.event) ->
      match e.Trace.args with [ ("i", Trace.Int i) ] -> Some i | _ -> None) evs
  in
  Alcotest.(check (list int)) "newest retained" [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.sort Stdlib.compare is)

let test_trace_timestamps_sorted () =
  Trace.start ();
  for _ = 0 to 9 do Trace.instant "t" done;
  let evs = Trace.events () in
  Trace.stop ();
  let rec sorted = function
    | (a : Trace.event) :: (b :: _ as rest) ->
      a.Trace.ts <= b.Trace.ts && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "events sorted by ts" true (sorted evs)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let test_chrome_field_contract () =
  Trace.start ();
  Trace.span "s" (fun () -> Trace.instant ~args:[ ("k", Trace.Str "v") ] "i");
  Trace.counter "c" [ ("rows", 3.0) ];
  let evs = Trace.events () in
  Trace.stop ();
  let s = Chrome_trace.to_string ~pid:7 evs in
  Alcotest.(check bool) "export passes the independent checker" true
    (Json_check.json_valid s);
  let j = Json.parse_exn s in
  let tes =
    match Option.bind (Json.member "traceEvents" j) Json.arr with
    | Some l -> l
    | None -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "at least metadata + 3 events" true
    (List.length tes >= 5);
  let str_member k e = Option.bind (Json.member k e) Json.str in
  let num_member k e = Option.bind (Json.member k e) Json.num in
  List.iter
    (fun e ->
      Alcotest.(check bool) "every event has a name" true
        (str_member "name" e <> None);
      Alcotest.(check (option (float 0.0))) "pid" (Some 7.0)
        (num_member "pid" e);
      Alcotest.(check bool) "tid" true (num_member "tid" e <> None);
      match str_member "ph" e with
      | Some "M" -> ()
      | Some "X" ->
        Alcotest.(check bool) "complete events carry ts" true
          (num_member "ts" e <> None);
        Alcotest.(check bool) "complete events carry dur" true
          (num_member "dur" e <> None)
      | Some "i" ->
        Alcotest.(check (option string)) "instants are thread-scoped"
          (Some "t") (str_member "s" e)
      | Some "C" ->
        Alcotest.(check bool) "counters carry args" true
          (Json.member "args" e <> None)
      | ph ->
        Alcotest.failf "unexpected ph %s"
          (match ph with Some p -> p | None -> "<absent>"))
    tes;
  (* process metadata names the process "lubt" *)
  let process_meta =
    List.exists
      (fun e ->
        str_member "name" e = Some "process_name"
        && Option.bind (Json.member "args" e) (fun a ->
               Option.bind (Json.member "name" a) Json.str)
           = Some "lubt")
      tes
  in
  Alcotest.(check bool) "process_name metadata" true process_meta

let test_chrome_pool_tids () =
  (* a Pool-parallel run records each worker's spans in that domain's
     own buffer, so the export shows distinct tids *)
  Trace.start ();
  ignore
    (Pool.map ~jobs:4
       (fun i ->
         ignore (Sys.opaque_identity (ref i));
         Unix.sleepf 0.02;
         i)
       [ 1; 2; 3; 4; 5; 6; 7; 8 ]);
  let evs = Trace.events () in
  Trace.stop ();
  let task_tids =
    List.filter_map
      (fun (e : Trace.event) ->
        if e.Trace.name = "pool.task" then Some e.Trace.tid else None)
      evs
  in
  Alcotest.(check int) "one span per task" 8 (List.length task_tids);
  let distinct = List.sort_uniq Stdlib.compare task_tids in
  Alcotest.(check bool)
    (Printf.sprintf "tasks spread over several domains (saw %d tids)"
       (List.length distinct))
    true
    (List.length distinct >= 2)

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)
(* ------------------------------------------------------------------ *)

let with_log_capture f =
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  Log.set_formatter fmt;
  let saved = Log.level () in
  Fun.protect
    ~finally:(fun () ->
      Log.set_level saved;
      Log.set_formatter Format.err_formatter)
    (fun () ->
      f ();
      Format.pp_print_flush fmt ();
      Buffer.contents buf)

let test_log_levels_filter () =
  let out =
    with_log_capture (fun () ->
        Log.set_level Log.Warn;
        Log.debug "dropped %d" 1;
        Log.info "dropped too";
        Log.warn "kept %s" "w";
        Log.err "kept e")
  in
  Alcotest.(check bool) "warn kept" true
    (String.length out > 0
    && (let re = "[warn] kept w" in
        let rec find i =
          i + String.length re <= String.length out
          && (String.sub out i (String.length re) = re || find (i + 1))
        in
        find 0));
  let contains needle hay =
    let rec find i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "err kept" true (contains "[error] kept e" out);
  Alcotest.(check bool) "info dropped" false (contains "dropped" out)

let test_log_fields_render () =
  let out =
    with_log_capture (fun () ->
        Log.set_level Log.Info;
        Log.info
          ~fields:[ ("stage", Trace.Str "x"); ("n", Trace.Int 3) ]
          "msg here")
  in
  let contains needle hay =
    let rec find i =
      i + String.length needle <= String.length hay
      && (String.sub hay i (String.length needle) = needle || find (i + 1))
    in
    find 0
  in
  Alcotest.(check bool) "message present" true (contains "msg here" out);
  Alcotest.(check bool) "string field" true (contains "stage=x" out);
  Alcotest.(check bool) "int field" true (contains "n=3" out)

let test_log_mirrors_to_trace () =
  Trace.start ();
  let _ = with_log_capture (fun () ->
      Log.set_level Log.Info;
      Log.info "mirrored")
  in
  let evs = Trace.events () in
  Trace.stop ();
  Alcotest.(check bool) "log.info instant recorded" true
    (List.exists (fun (e : Trace.event) -> e.Trace.name = "log.info") evs)

(* ------------------------------------------------------------------ *)
(* Convergence probe on a real solve                                   *)
(* ------------------------------------------------------------------ *)

let tiny_workload () =
  let spec = Benchmarks.find Benchmarks.Tiny "prim1s" in
  let sinks = Benchmarks.sinks spec in
  let source = Benchmarks.source spec in
  let inst0 =
    Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity ()
  in
  let radius = Instance.radius inst0 in
  let bst = Bst.route ~skew_bound:(0.5 *. radius) ~source sinks in
  let m = Instance.num_sinks inst0 in
  let inst =
    Instance.with_bounds inst0
      ~lower:(Array.make m bst.Bst.dmin)
      ~upper:(Array.make m bst.Bst.dmax)
  in
  (inst, bst.Bst.topology)

let test_convergence_jsonl () =
  let inst, topo = tiny_workload () in
  let buf = Buffer.create 4096 in
  let sink = Convergence.to_buffer buf in
  let probe (e : Simplex.probe_event) =
    Convergence.record sink ~iteration:e.Simplex.pr_iteration
      ~phase:e.Simplex.pr_phase ~objective:e.Simplex.pr_objective
      ~primal_infeasibility:e.Simplex.pr_primal_infeas
      ~dual_infeasibility:e.Simplex.pr_dual_infeas
      ~entering:e.Simplex.pr_entering ~leaving:e.Simplex.pr_leaving
      ~eta_count:e.Simplex.pr_eta_count ~bound_flips:e.Simplex.pr_bound_flips
      ?recovery:e.Simplex.pr_recovery ()
  in
  let probed =
    Ebf.solve
      ~options:{ Ebf.default_options with Ebf.probe = Some probe }
      inst topo
  in
  let plain = Ebf.solve inst topo in
  Alcotest.(check bool) "objective unchanged by the probe" true
    (Int64.equal
       (Int64.bits_of_float probed.Ebf.objective)
       (Int64.bits_of_float plain.Ebf.objective));
  Alcotest.(check int) "iteration count unchanged by the probe"
    plain.Ebf.lp_iterations probed.Ebf.lp_iterations;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "line counter agrees" (Convergence.lines sink)
    (List.length lines);
  Alcotest.(check bool) "one record per pivot" true
    (List.length lines >= probed.Ebf.lp_iterations);
  let last = ref min_int in
  List.iter
    (fun line ->
      Alcotest.(check bool) "line passes the independent checker" true
        (Json_check.json_valid line);
      let j = Json.parse_exn line in
      let it =
        match Option.bind (Json.member "iteration" j) Json.num with
        | Some f -> int_of_float f
        | None -> Alcotest.fail "line without iteration"
      in
      Alcotest.(check bool)
        (Printf.sprintf "iteration ids monotone (%d >= %d)" it !last)
        true (it >= !last);
      last := it;
      Alcotest.(check bool) "phase member present" true
        (Option.bind (Json.member "phase" j) Json.str <> None))
    lines

let test_tracing_does_not_perturb_solver () =
  let inst, topo = tiny_workload () in
  let plain = Ebf.solve inst topo in
  Trace.start ();
  let traced = Ebf.solve inst topo in
  let n_events = List.length (Trace.events ()) in
  Trace.stop ();
  Alcotest.(check bool) "tracing recorded solver spans" true (n_events > 0);
  Alcotest.(check bool) "objective bit-identical under tracing" true
    (Int64.equal
       (Int64.bits_of_float traced.Ebf.objective)
       (Int64.bits_of_float plain.Ebf.objective));
  let a = plain.Ebf.lp_stats and b = traced.Ebf.lp_stats in
  (* every pivot-trajectory counter must be identical; phase times are
     wall-clock and may differ *)
  Alcotest.(check int) "iterations" a.Simplex.iterations b.Simplex.iterations;
  Alcotest.(check int) "bound_flips" a.Simplex.bound_flips b.Simplex.bound_flips;
  Alcotest.(check int) "ftran_count" a.Simplex.ftran_count b.Simplex.ftran_count;
  Alcotest.(check int) "btran_count" a.Simplex.btran_count b.Simplex.btran_count;
  Alcotest.(check int) "refactorisations" a.Simplex.refactorisations
    b.Simplex.refactorisations;
  Alcotest.(check int) "basis_updates" a.Simplex.basis_updates
    b.Simplex.basis_updates

let test_ebf_round_spans () =
  (* acceptance: a traced solve shows at least one span per EBF round
     plus simplex phase spans *)
  let inst, topo = tiny_workload () in
  Trace.start ();
  let r = Ebf.solve inst topo in
  let evs = Trace.events () in
  Trace.stop ();
  let count name =
    List.length
      (List.filter (fun (e : Trace.event) -> e.Trace.name = name) evs)
  in
  Alcotest.(check int) "one ebf.solve span per round" r.Ebf.rounds
    (count "ebf.solve");
  Alcotest.(check int) "one ebf.scan span per round" r.Ebf.rounds
    (count "ebf.scan");
  Alcotest.(check bool) "simplex phase spans present" true
    (count "simplex.phase2" + count "simplex.dual" + count "simplex.phase1"
    > 0);
  Alcotest.(check bool) "ftran spans present" true (count "simplex.ftran" > 0)

(* ------------------------------------------------------------------ *)
(* bench diff: library verdicts                                        *)
(* ------------------------------------------------------------------ *)

let bench_file ?(schema = "lubt-bench/5") ?(counters = "") entries =
  Printf.sprintf
    "{\"schema\": \"%s\", \"size\": \"tiny\", \"jobs\": 1, \"cores\": 1, \
     \"benchmarks\": [%s]}"
    schema
    (String.concat ", "
       (List.map
          (fun (name, ms, iters) ->
            Printf.sprintf
              "{\"name\": \"%s\", \"ms_per_run\": %g, \"solver\": \
               {\"iterations\": %d%s}}"
              name ms iters counters)
          entries))

let test_diff_identical () =
  let f = bench_file [ ("a", 10.0, 5); ("b", 1.0, 7) ] in
  match Bench_diff.compare f f with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "no regression" false (Bench_diff.has_regression r);
    Alcotest.(check int) "two deltas" 2 (List.length r.Bench_diff.r_deltas);
    List.iter
      (fun d ->
        Alcotest.(check bool) "unchanged" true
          (d.Bench_diff.d_verdict = Bench_diff.Unchanged);
        Alcotest.(check (list (triple string (float 0.0) (float 0.0))))
          "no counter drift" [] d.Bench_diff.d_counters)
      r.Bench_diff.r_deltas

let test_diff_regression_and_threshold () =
  let old_f = bench_file [ ("a", 10.0, 5) ] in
  let new_f = bench_file [ ("a", 11.5, 6) ] in
  (match Bench_diff.compare ~threshold:0.10 old_f new_f with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "15% > 10%: regression" true
      (Bench_diff.has_regression r);
    (match r.Bench_diff.r_deltas with
    | [ d ] ->
      Alcotest.(check bool) "flagged" true
        (d.Bench_diff.d_verdict = Bench_diff.Regression);
      (match d.Bench_diff.d_counters with
      | [ ("iterations", 5.0, 6.0) ] -> ()
      | cs ->
        Alcotest.failf "expected the iterations drift, got %d entries"
          (List.length cs))
    | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds)));
  match Bench_diff.compare ~threshold:0.20 old_f new_f with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "15% < 20%: within threshold" false
      (Bench_diff.has_regression r)

let test_diff_improvement_and_missing () =
  let old_f = bench_file [ ("a", 10.0, 5); ("gone", 1.0, 1) ] in
  let new_f = bench_file [ ("a", 5.0, 5); ("fresh", 1.0, 1) ] in
  match Bench_diff.compare old_f new_f with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (match r.Bench_diff.r_deltas with
    | [ d ] ->
      Alcotest.(check bool) "improvement flagged" true
        (d.Bench_diff.d_verdict = Bench_diff.Improvement)
    | _ -> Alcotest.fail "expected one common benchmark");
    Alcotest.(check (list string)) "lost benchmark reported" [ "gone" ]
      r.Bench_diff.r_only_old;
    Alcotest.(check (list string)) "new benchmark reported" [ "fresh" ]
      r.Bench_diff.r_only_new;
    (* losing a benchmark is a gate failure even though "a" improved *)
    Alcotest.(check bool) "lost coverage fails the gate" true
      (Bench_diff.has_regression r)

(* a solver counter that vanishes from the new run is lost coverage, the
   same as a lost benchmark: reported MISSING and failing the gate *)
let test_diff_lost_counter () =
  let old_f =
    bench_file
      ~counters:", \"btran_count\": 9, \"recoveries\": {\"tableau_fallbacks\": 0}"
      [ ("a", 10.0, 5) ]
  in
  let new_f = bench_file [ ("a", 10.0, 5) ] in
  match Bench_diff.compare old_f new_f with
  | Error e -> Alcotest.fail e
  | Ok r ->
    (match r.Bench_diff.r_deltas with
    | [ d ] ->
      Alcotest.(check (list string)) "lost counters named"
        [ "btran_count"; "recoveries.tableau_fallbacks" ]
        d.Bench_diff.d_lost_counters;
      Alcotest.(check (list (triple string (float 0.0) (float 0.0))))
        "no drift among the kept ones" [] d.Bench_diff.d_counters
    | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds));
    Alcotest.(check bool) "lost counter fails the gate" true
      (Bench_diff.has_regression r);
    let out = Filename.temp_file "lubt_diff" ".txt" in
    Out_channel.with_open_text out (fun oc -> Bench_diff.print oc r);
    let text = In_channel.with_open_text out In_channel.input_all in
    Sys.remove out;
    let contains needle =
      let nh = String.length text and nn = String.length needle in
      let rec go i =
        i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "printed as MISSING" true
      (contains "btran_count                      MISSING from new run");
    (* the reverse direction, a counter that appears, is not a loss *)
    (match Bench_diff.compare new_f old_f with
    | Ok r' ->
      Alcotest.(check bool) "new counter is not a loss" false
        (Bench_diff.has_regression r')
    | Error e -> Alcotest.fail e)

(* The degenerate-baseline cases the absolute-delta floor exists for: a
   zero or sub-microsecond old entry must not turn jitter into an
   inf/nan or 20x ratio "regression". *)
let test_diff_absolute_floor () =
  let verdict ?threshold ?abs_floor_ms old_ms new_ms =
    let old_f = bench_file [ ("a", old_ms, 1) ] in
    let new_f = bench_file [ ("a", new_ms, 1) ] in
    match Bench_diff.compare ?threshold ?abs_floor_ms old_f new_f with
    | Error e -> Alcotest.fail e
    | Ok r -> (
      match r.Bench_diff.r_deltas with
      | [ d ] -> d.Bench_diff.d_verdict
      | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds))
  in
  (* zero baseline: the ratio is inf/nan; the delta's sign decides,
     but only past the floor *)
  Alcotest.(check bool) "0 -> 0.03ms: below the floor, unchanged" true
    (verdict 0.0 0.03 = Bench_diff.Unchanged);
  Alcotest.(check bool) "0 -> 1ms: a real appearance, regression" true
    (verdict 0.0 1.0 = Bench_diff.Regression);
  Alcotest.(check bool) "1ms -> 0: a real disappearance, improvement" true
    (verdict 1.0 0.0 = Bench_diff.Improvement);
  (* sub-floor jitter with a scary ratio: 1us -> 20us is 20x but only
     0.019ms — not a verdict *)
  Alcotest.(check bool) "1us -> 20us: 20x ratio clamped by the floor" true
    (verdict 0.001 0.02 = Bench_diff.Unchanged);
  (* with the floor disabled the same jitter regresses, so the clamp
     really is what protects it *)
  Alcotest.(check bool) "floor 0 restores the raw ratio verdict" true
    (verdict ~abs_floor_ms:0.0 0.001 0.02 = Bench_diff.Regression);
  (* the floor never masks a real regression of normal magnitude *)
  Alcotest.(check bool) "10 -> 12ms still regresses" true
    (verdict 10.0 12.0 = Bench_diff.Regression)

(* SLO entries (_p50/_p95/_p99) gate under their own wider threshold
   and higher floor: tail quantiles are contracts worth failing CI
   over, but 10%-noisy by nature. *)
let test_diff_slo_gate () =
  let verdict ?slo_threshold ?slo_floor_ms name old_ms new_ms =
    let old_f = bench_file [ (name, old_ms, 1) ] in
    let new_f = bench_file [ (name, new_ms, 1) ] in
    match Bench_diff.compare ?slo_threshold ?slo_floor_ms old_f new_f with
    | Error e -> Alcotest.fail e
    | Ok r -> (
      match r.Bench_diff.r_deltas with
      | [ d ] -> d.Bench_diff.d_verdict
      | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds))
  in
  (* +30% would regress a timing entry (10% gate) but sits inside the
     50% SLO band *)
  Alcotest.(check bool) "p95 +30%: inside the SLO band" true
    (verdict "serve_latency_p95" 100.0 130.0 = Bench_diff.Unchanged);
  Alcotest.(check bool) "p95 +60%: SLO regression" true
    (verdict "serve_latency_p95" 100.0 160.0 = Bench_diff.Regression);
  Alcotest.(check bool) "p95 -60%: SLO improvement" true
    (verdict "serve_latency_p95" 100.0 40.0 = Bench_diff.Improvement);
  (* the SLO floor clamps tiny-baseline ratios: 0.1ms -> 0.9ms is 9x
     but only 0.8ms, below the 1ms floor *)
  Alcotest.(check bool) "sub-floor p99 jitter unchanged" true
    (verdict "serve_latency_p99" 0.1 0.9 = Bench_diff.Unchanged);
  Alcotest.(check bool) "tightened SLO threshold bites" true
    (verdict ~slo_threshold:0.2 "serve_latency_p50" 100.0 130.0
    = Bench_diff.Regression);
  (* a non-SLO timing entry keeps the normal gate *)
  Alcotest.(check bool) "plain entry still gates at 10%" true
    (verdict "a" 100.0 130.0 = Bench_diff.Regression)

(* The bench writer serialises nan as null (the unobservable hit rate
   against an external daemon); the parser must read it back as nan
   and never let it gate — a regression here breaks CI's self-diff. *)
let test_diff_null_ms () =
  let null_file =
    "{\"schema\": \"lubt-bench/4\", \"size\": \"tiny\", \"jobs\": 1, \
     \"cores\": 1, \"benchmarks\": [{\"name\": \"serve_cache_hit_rate\", \
     \"ms_per_run\": null}]}"
  in
  match Bench_diff.compare null_file null_file with
  | Error e -> Alcotest.fail e
  | Ok r -> (
    Alcotest.(check bool) "null never gates" false
      (Bench_diff.has_regression r);
    match r.Bench_diff.r_deltas with
    | [ d ] ->
      Alcotest.(check bool) "parsed as nan" true
        (Float.is_nan d.Bench_diff.d_old_ms)
    | ds -> Alcotest.failf "expected 1 delta, got %d" (List.length ds))

let test_diff_rejects_garbage () =
  (match Bench_diff.compare "not json" (bench_file []) with
  | Ok _ -> Alcotest.fail "accepted garbage old file"
  | Error e ->
    Alcotest.(check bool) "error names the old file" true
      (String.length e >= 4 && String.sub e 0 4 = "old:"));
  match Bench_diff.compare ~threshold:0.1 (bench_file []) "{\"schema\": \"other/1\", \"benchmarks\": []}" with
  | Ok _ -> Alcotest.fail "accepted foreign schema"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* bench diff: exe exit codes                                          *)
(* ------------------------------------------------------------------ *)

let test_diff_exit_codes () =
  let bench_exe =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "..")
      (Filename.concat "bench" "main.exe")
  in
  let dir = Filename.temp_file "lubt_obs" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let write name contents =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents);
    path
  in
  let old_p = write "old.json" (bench_file [ ("a", 10.0, 5) ]) in
  let same_p = write "same.json" (bench_file [ ("a", 10.0, 5) ]) in
  let reg_p = write "reg.json" (bench_file [ ("a", 30.0, 5) ]) in
  let bad_p = write "bad.json" "nonsense" in
  let code args =
    Sys.command
      (Printf.sprintf "%s diff %s > /dev/null 2>&1" (Filename.quote bench_exe)
         args)
  in
  Alcotest.(check int) "identical files exit 0" 0
    (code (Filename.quote old_p ^ " " ^ Filename.quote same_p));
  Alcotest.(check int) "regression exits 1" 1
    (code (Filename.quote old_p ^ " " ^ Filename.quote reg_p));
  Alcotest.(check int) "improvement exits 0" 0
    (code (Filename.quote reg_p ^ " " ^ Filename.quote old_p));
  Alcotest.(check int) "--warn-only masks the failure" 0
    (code (Filename.quote old_p ^ " " ^ Filename.quote reg_p ^ " --warn-only"));
  Alcotest.(check int) "huge threshold passes" 0
    (code
       (Filename.quote old_p ^ " " ^ Filename.quote reg_p
      ^ " --threshold 500"));
  Alcotest.(check int) "unreadable input exits 2" 2
    (code (Filename.quote old_p ^ " " ^ Filename.quote bad_p));
  List.iter Sys.remove [ old_p; same_p; reg_p; bad_p ];
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let a = Clock.now () in
  let b = Clock.now () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "ns view agrees with seconds view" true
    (Int64.compare (Clock.now_ns ()) 0L > 0)

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_rejects;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "span balance under exceptions" `Quick
            test_trace_span_balance_under_exceptions;
          Alcotest.test_case "ring wrap-around" `Quick test_trace_ring_wraps;
          Alcotest.test_case "timestamps sorted" `Quick
            test_trace_timestamps_sorted;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "field contract" `Quick test_chrome_field_contract;
          Alcotest.test_case "pool workers get distinct tids" `Quick
            test_chrome_pool_tids;
        ] );
      ( "log",
        [
          Alcotest.test_case "levels filter" `Quick test_log_levels_filter;
          Alcotest.test_case "fields render" `Quick test_log_fields_render;
          Alcotest.test_case "mirrors to trace" `Quick
            test_log_mirrors_to_trace;
        ] );
      ( "solver",
        [
          Alcotest.test_case "convergence JSON-lines" `Quick
            test_convergence_jsonl;
          Alcotest.test_case "tracing does not perturb the solve" `Quick
            test_tracing_does_not_perturb_solver;
          Alcotest.test_case "per-round spans" `Quick test_ebf_round_spans;
        ] );
      ( "bench-diff",
        [
          Alcotest.test_case "identical" `Quick test_diff_identical;
          Alcotest.test_case "regression and threshold" `Quick
            test_diff_regression_and_threshold;
          Alcotest.test_case "improvement and missing" `Quick
            test_diff_improvement_and_missing;
          Alcotest.test_case "absolute floor" `Quick test_diff_absolute_floor;
          Alcotest.test_case "SLO gate" `Quick test_diff_slo_gate;
          Alcotest.test_case "null ms_per_run" `Quick test_diff_null_ms;
          Alcotest.test_case "rejects garbage" `Quick test_diff_rejects_garbage;
          Alcotest.test_case "exe exit codes" `Quick test_diff_exit_codes;
          Alcotest.test_case "lost solver counter" `Quick test_diff_lost_counter;
        ] );
      ( "clock",
        [ Alcotest.test_case "monotone" `Quick test_clock_monotone ] );
    ]
