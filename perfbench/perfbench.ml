(* perfbench: the repository's end-to-end and per-layer benchmark.

   Three workloads, each driven through the libraries' public functions
   only (see BENCHMARK.md for why each was chosen):

   - [paper_full]: closed loop of one-shot cold solves of r3s at full
     size (862 sinks), bounds [0.95, 1.0] x radius — baseline route with
     skew bound hi - lo, then [Ebf.solve], then [Embed.place];
   - [eco_resolve]: closed loop over a seeded chain of
     topology-preserving ECO edits against r3s at scaled size (220
     sinks), each applied with [Instance.Edit.apply] and warm re-solved
     through one shared [Basis_cache];
   - [serve_tiny]: open loop at 60 req/s against a self-hosted daemon
     ([Serve.spawn], jobs = 2) over two pipelined connections, using
     the tiny 4-benchmark x 8-seed request mix.

   Usage:
     perfbench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   The last line of stdout is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. With [--trace 0] the metrics are
   the end-to-end ones, measured with tracing off; with [--trace 1] they
   are the per-layer ones, from a traced window plus an untraced
   reference window. [--size tiny] shrinks every workload for the smoke
   test. Every output is checked outside the timed region; a wrong
   answer counts as a failed op. *)

module Clock = Lubt_obs.Clock
module Trace = Lubt_obs.Trace
module Json = Lubt_obs.Json
module Metrics = Lubt_obs.Metrics
module Stats = Lubt_util.Stats
module Prng = Lubt_util.Prng
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Embed = Lubt_core.Embed
module Lubt = Lubt_core.Lubt
module Bst = Lubt_bst.Bst_dme
module Benchmarks = Lubt_data.Benchmarks
module Io = Lubt_data.Io
module Simplex = Lubt_lp.Simplex
module Cache = Lubt_lp.Basis_cache
module Certify = Lubt_lp.Certify
module Status = Lubt_lp.Status
module Serve = Lubt_experiments.Serve
module Protocol = Lubt_experiments.Protocol

(* ------------------------------------------------------------------ *)
(* Arguments                                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
}

let usage =
  "usage: perfbench.exe --workload paper_full|eco_resolve|serve_tiny --seed \
   N --seconds S --trace 0|1 [--size tiny]"

let parse_args argv =
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and tiny = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: v :: rest ->
      (match int_of_string_opt v with
      | Some s when s >= 0 -> seed := Some s
      | _ -> die "--seed: need a non-negative integer");
      go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0.0 -> seconds := Some s
      | _ -> die "--seconds: need a positive number");
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := Some false
      | "1" -> trace := Some true
      | _ -> die "--trace: need 0 or 1");
      go rest
    | "--size" :: "tiny" :: rest -> tiny := true; go rest
    | a :: _ -> die (Printf.sprintf "unknown argument %S" a)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace ->
    if not (List.mem workload [ "paper_full"; "eco_resolve"; "serve_tiny" ])
    then die ("unknown workload " ^ workload);
    { workload; seed; seconds; trace; tiny = !tiny }
  | _ -> die "--workload, --seed, --seconds and --trace are required"

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                  *)
(* ------------------------------------------------------------------ *)

let now = Clock.now

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* nearest-rank percentile of an unsorted sample; 0 for an empty one *)
let pct xs p =
  if xs = [] then 0.0
  else begin
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    Stats.percentile a p
  end

let median xs = pct xs 50.0

let mean xs =
  if xs = [] then 0.0 else Stats.mean (Array.of_list xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let to_ms l = List.map (fun x -> 1e3 *. x) l

(* process high-water resident set (VmHWM), in MB *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* Set-up is timed [reps] times and reported as the median. A run
   measures the state of the first repetition; the others run after the
   measured window and the RSS reading, each released by [drop], so
   their garbage cannot set the peak RSS. *)
let setup_median ~reps ~first ~drop f =
  median
    (first
    :: List.init (reps - 1) (fun _ ->
           let st, dt = timed f in
           drop st;
           dt))

(* Closed loop: run [op] until the timed op time adds up to [seconds];
   stop early when one more op of the mean length so far would overrun
   (so a 17 s paper solve in a 20 s budget runs once, not twice). At
   least one op always runs. [op] returns its own timed latency. *)
let closed_loop ~seconds op =
  let rec go n busy lats =
    let avg = if n = 0 then 0.0 else busy /. float_of_int n in
    if n > 0 && busy +. avg > seconds then List.rev lats
    else
      let dt = op () in
      go (n + 1) (busy +. dt) (dt :: lats)
  in
  go 0 0.0 []

(* ------------------------------------------------------------------ *)
(* Span accounting                                                      *)
(* ------------------------------------------------------------------ *)

(* Spans recorded by the benchmark itself around public calls. The op
   span and the daemon's per-request span are envelopes: they name no
   layer, so time inside them that no other span covers is
   unattributed. *)
let envelopes = [ "bench.op"; "serve.request" ]

type layer = { mutable total : float; mutable self : float }

type spans = {
  layers : (string, layer) Hashtbl.t;
  unattributed : float;  (* envelope time covered by no other span, s *)
  enveloped : float;  (* total duration of outermost envelope spans, s *)
  dropped : int;
}

(* Rebuild the span tree per recording domain (events carry no parent
   id, but spans of one domain nest properly), then fold self times —
   duration minus directly nested children — per span name. *)
let analyse_spans events ~dropped =
  let layers = Hashtbl.create 32 in
  let layer name =
    match Hashtbl.find_opt layers name with
    | Some l -> l
    | None ->
      let l = { total = 0.0; self = 0.0 } in
      Hashtbl.add layers name l;
      l
  in
  let unattributed = ref 0.0 and enveloped = ref 0.0 in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Span d ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt by_tid e.Trace.tid) in
        Hashtbl.replace by_tid e.Trace.tid ((e.Trace.name, e.Trace.ts, e.Trace.ts +. d) :: prev)
      | Trace.Instant | Trace.Counter -> ())
    events;
  let eps = 1e-9 in
  Hashtbl.iter
    (fun _ spans ->
      let a = Array.of_list spans in
      (* outer spans first: by start, then longest first *)
      Array.sort
        (fun (_, s1, e1) (_, s2, e2) ->
          match Float.compare s1 s2 with 0 -> Float.compare e2 e1 | c -> c)
        a;
      (* stack entries: name, start, end, children time, parent is an envelope *)
      let stack = ref [] in
      let close (name, s, e, children, parent_env) =
        let d = e -. s in
        let l = layer name in
        l.total <- l.total +. d;
        l.self <- l.self +. (d -. !children);
        if List.mem name envelopes then begin
          unattributed := !unattributed +. (d -. !children);
          if not parent_env then enveloped := !enveloped +. d
        end
      in
      Array.iter
        (fun (name, s, e) ->
          let rec pop () =
            match !stack with
            | ((_, _, pe, _, _) as top) :: rest when s >= pe -. eps || e > pe +. eps ->
              close top;
              stack := rest;
              pop ()
            | _ -> ()
          in
          pop ();
          let parent_env =
            match !stack with
            | (pname, _, _, children, _) :: _ ->
              children := !children +. (e -. s);
              List.mem pname envelopes
            | [] -> false
          in
          stack := (name, s, e, ref 0.0, parent_env) :: !stack)
        a;
      List.iter close !stack)
    by_tid;
  { layers; unattributed = !unattributed; enveloped = !enveloped; dropped }

let span_total sp name =
  match Hashtbl.find_opt sp.layers name with Some l -> l.total | None -> 0.0

let span_self sp name =
  match Hashtbl.find_opt sp.layers name with Some l -> l.self | None -> 0.0

(* Runs [f] with tracing on into rings large enough that nothing
   wraps; returns its result and the analysed spans. *)
let traced ~capacity f =
  Trace.start ~capacity ();
  let v = Fun.protect ~finally:Trace.stop f in
  let sp = analyse_spans (Trace.events ()) ~dropped:(Trace.dropped ()) in
  (v, sp)

(* ------------------------------------------------------------------ *)
(* Metric tables                                                        *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, in report order, with its unit. A traced run
   of any workload reports all of them; a layer the workload never
   enters reads 0. The smoke test checks this list against
   BENCHMARK.json. *)
let per_layer_units =
  [ ("bst.route_ms", "ms");
    ("ebf.solve_ms", "ms");
    ("ebf.scan_ms", "ms");
    ("ebf.append_rows_ms", "ms");
    ("ebf.rounds", "count");
    ("ebf.lp_rows", "count");
    ("ebf.violations_found", "count");
    ("simplex.dual_ms", "ms");
    ("simplex.ftran_ms", "ms");
    ("simplex.btran_ms", "ms");
    ("simplex.refactor_ms", "ms");
    ("simplex.dual_scan_ms", "ms");
    ("simplex.dual_unattributed_ms", "ms");
    ("simplex.iterations", "count");
    ("simplex.ftran_count", "count");
    ("simplex.btran_count", "count");
    ("simplex.refactorisations", "count");
    ("simplex.bound_flips", "count");
    ("simplex.hyper_sparse_ratio", "ratio");
    ("cache.lookups", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.stores", "count");
    ("cache.evictions", "count");
    ("cache.rejects", "count");
    ("eco.warm_pivots_per_op", "count");
    ("eco.edit_apply_ms", "ms");
    ("embed.place_ms", "ms");
    ("serve.response_ms_p50", "ms");
    ("serve.route_ms_p50", "ms");
    ("serve.solve_ms_p50", "ms");
    ("serve.render_parse_ms_p50", "ms");
    ("serve.queue_wait_ms_p50", "ms");
    ("serve.server_ms_p50", "ms");
    ("serve.server_ms_p95", "ms");
    ("serve.open_ms_p50", "ms");
    ("serve.open_ms_p95", "ms");
    ("serve.slo_ok_ratio", "ratio");
    ("serve.generator_lag_ms_max", "ms");
    ("serve.bytes_per_request", "bytes");
    ("serve.sent", "count");
    ("serve.ok", "count");
    ("serve.refused", "count");
    ("serve.failed", "count");
    ("failed_ratio", "ratio");
    ("trace.dropped_events", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.unattributed_ratio", "ratio") ]

type report = {
  mutable attempted : int;
  mutable failed : int;
  values : (string, float) Hashtbl.t;
}

let new_report () = { attempted = 0; failed = 0; values = Hashtbl.create 64 }

let set r name v = Hashtbl.replace r.values name v

let count_op r ok =
  r.attempted <- r.attempted + 1;
  if not ok then r.failed <- r.failed + 1

let ok_share r =
  ratio (float_of_int (r.attempted - r.failed)) (float_of_int r.attempted)

(* The end-to-end metrics every workload reports, tracing off. *)
let end_to_end r ~setup_s ~rss ~p50 ~p95 ~ok_ratio =
  set r "setup_s" setup_s;
  set r "op_ms_p50" p50;
  set r "op_ms_p95" p95;
  set r "ok_ratio" ok_ratio;
  set r "peak_rss_mb" rss

let end_to_end_units =
  [ ("setup_s", "s"); ("op_ms_p50", "ms"); ("op_ms_p95", "ms");
    ("ok_ratio", "ratio"); ("peak_rss_mb", "MB") ]

(* Tracing overhead: the traced window's p50 against the mean p50 of the
   untraced windows run just before and just after it, so a machine
   speeding up or slowing down during the run cancels instead of
   showing up as (negative) overhead. *)
let overhead r ~traced ~before ~after =
  set r "trace.overhead_ratio" ((traced /. ((before +. after) /. 2.0)) -. 1.0)

(* Span-derived layer times, per op of the traced window, plus the
   tracing soundness figures. *)
let span_layers r sp ~ops =
  let per_op name = 1e3 *. span_total sp name /. float_of_int (max 1 ops) in
  set r "bst.route_ms" (per_op "bench.route");
  set r "eco.edit_apply_ms" (per_op "bench.edit");
  set r "ebf.solve_ms" (per_op "ebf.solve");
  set r "ebf.scan_ms" (per_op "ebf.scan");
  set r "ebf.append_rows_ms" (per_op "ebf.append_rows");
  set r "embed.place_ms" (per_op "embed.feasible_regions" +. per_op "embed.place");
  set r "simplex.dual_ms" (per_op "simplex.dual");
  set r "simplex.ftran_ms" (per_op "simplex.ftran");
  set r "simplex.btran_ms" (per_op "simplex.btran");
  set r "simplex.refactor_ms" (per_op "simplex.refactor");
  set r "simplex.dual_scan_ms" (per_op "simplex.dual_scan");
  set r "simplex.dual_unattributed_ms"
    (1e3 *. span_self sp "simplex.dual" /. float_of_int (max 1 ops));
  set r "trace.dropped_events" (float_of_int sp.dropped);
  set r "trace.unattributed_ratio" (ratio sp.unattributed sp.enveloped)

(* Solver work counters, per op, from the records [Ebf.solve] returns. *)
let ebf_layers r (results : Ebf.result list) =
  let per_op f = mean (List.map (fun x -> float_of_int (f x)) results) in
  let st f = per_op (fun (x : Ebf.result) -> f x.Ebf.lp_stats) in
  set r "ebf.rounds" (per_op (fun x -> x.Ebf.rounds));
  set r "ebf.lp_rows" (per_op (fun x -> x.Ebf.lp_rows));
  set r "ebf.violations_found"
    (per_op (fun x ->
         List.fold_left (fun a s -> a + s.Ebf.violations_found) 0 x.Ebf.round_stats));
  set r "simplex.iterations" (st (fun s -> s.Simplex.iterations));
  set r "simplex.ftran_count" (st (fun s -> s.Simplex.ftran_count));
  set r "simplex.btran_count" (st (fun s -> s.Simplex.btran_count));
  set r "simplex.refactorisations" (st (fun s -> s.Simplex.refactorisations));
  set r "simplex.bound_flips" (st (fun s -> s.Simplex.bound_flips));
  set r "simplex.hyper_sparse_ratio"
    (ratio
       (st (fun s -> s.Simplex.hyper_sparse_ftrans + s.Simplex.hyper_sparse_btrans))
       (st (fun s -> s.Simplex.ftran_count + s.Simplex.btran_count)))

(* Warm-start cache counters over a window, from two stats snapshots. *)
let cache_layers r (a : Cache.stats) (b : Cache.stats) =
  let d f = float_of_int (f b - f a) in
  let hits = d (fun s -> s.Cache.hits) and misses = d (fun s -> s.Cache.misses) in
  set r "cache.lookups" (hits +. misses);
  set r "cache.hit_ratio" (ratio hits (hits +. misses));
  set r "cache.stores" (d (fun s -> s.Cache.stores));
  set r "cache.evictions" (d (fun s -> s.Cache.evictions));
  set r "cache.rejects" (d (fun s -> s.Cache.rejects))

let print_report r ~trace =
  let units = if trace then per_layer_units else end_to_end_units in
  let metric (name, unit_) =
    let v = Option.value ~default:0.0 (Hashtbl.find_opt r.values name) in
    if not (Float.is_finite v) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed
    (String.concat ", " (List.map metric units))

(* ------------------------------------------------------------------ *)
(* Instances                                                            *)
(* ------------------------------------------------------------------ *)

let spec_for ~tiny ~full name =
  Benchmarks.find (if tiny then Benchmarks.Tiny else if full then Benchmarks.Full else Benchmarks.Scaled) name

(* The seed picks one of the eight symmetries of the square — an axis
   swap and two sign flips, all exact in floating point — and applies it
   to the sinks and the source. Every seed therefore poses the same
   geometry (Manhattan distances are unchanged), so the cost is the
   same and the work per op stays comparable across seeds, while the
   program still sees different coordinates. A fresh sink field per
   seed moved the paper-size cold solve by about 20%, which would
   drown the regressions the benchmark has to catch. *)
let symmetry seed (p : Lubt_geom.Point.t) =
  let k = seed mod 8 in
  let x, y = if k land 1 = 1 then (p.Lubt_geom.Point.y, p.Lubt_geom.Point.x) else (p.Lubt_geom.Point.x, p.Lubt_geom.Point.y) in
  Lubt_geom.Point.make (if k land 2 = 2 then -.x else x) (if k land 4 = 4 then -.y else y)

let transformed seed (inst : Instance.t) =
  Instance.create
    ?source:(Option.map (symmetry seed) inst.Instance.source)
    ~sinks:(Array.map (symmetry seed) inst.Instance.sinks)
    ~lower:inst.Instance.lower ~upper:inst.Instance.upper ()

let ok_or_fail = function Ok v -> v | Error msg -> failwith msg

let is_optimal (r : Ebf.result) = r.Ebf.status = Status.Optimal

(* ------------------------------------------------------------------ *)
(* paper_full                                                           *)
(* ------------------------------------------------------------------ *)

(* [lubt solve --no-cache] on the full-size instance reports this cost;
   every seed poses the same geometry, so every seed must reach it *)
let paper_objective = 3406644.40

(* [lubt gen --size full --bench r3s --lower 0.95 --upper 1.0] under the
   seed's symmetry, written and read back as the instance file
   [lubt solve] loads *)
let paper_instance ~seed spec =
  let inst = transformed seed (Benchmarks.instance ~lower:0.95 ~upper:1.0 spec) in
  ok_or_fail (Io.instance_of_string (Io.instance_to_string inst))

(* route with the skew the bounds imply, EBF, embed: the solve path *)
let paper_solve (inst : Instance.t) =
  Trace.span "bench.op" (fun () ->
      let lo, _ = Stats.min_max inst.Instance.lower in
      let _, hi = Stats.min_max inst.Instance.upper in
      let tree =
        Trace.span "bench.route" (fun () ->
            (Bst.route ~skew_bound:(max 0.0 (hi -. lo)) ?source:inst.Instance.source
               inst.Instance.sinks)
              .Bst.topology)
      in
      let ebf = Ebf.solve inst tree in
      let emb = Embed.place inst tree ebf.Ebf.lengths in
      (tree, ebf, emb))

let paper_check ~expect inst (tree, ebf, emb) =
  is_optimal ebf
  && Result.is_ok (Ebf.check_lengths inst tree ebf.Ebf.lengths)
  && (match emb with
     | Ok e -> Result.is_ok (Embed.verify inst tree ebf.Ebf.lengths e)
     | Error _ -> false)
  &&
  match expect with
  | Some v -> Float.abs (ebf.Ebf.objective -. v) <= 0.005
  | None -> true

let run_paper a =
  let r = new_report () in
  let spec = spec_for ~tiny:a.tiny ~full:true "r3s" in
  let setup () = paper_instance ~seed:a.seed spec in
  let inst, first = timed setup in
  (* the instance text is longer for negative coordinates; collecting it
     keeps that from shifting the solve's GC cycles, which moved the peak
     RSS by 10% between seeds *)
  Gc.full_major ();
  let expect = if a.tiny then None else Some paper_objective in
  let results = ref [] in
  let op () =
    let out, dt = timed (fun () -> paper_solve inst) in
    let ok = paper_check ~expect inst out in
    count_op r ok;
    let _, ebf, _ = out in
    results := ebf :: !results;
    if not ok then
      Printf.eprintf "paper_full: wrong answer (status %s, objective %.6f)\n%!"
        (Status.to_string ebf.Ebf.status) ebf.Ebf.objective;
    dt
  in
  let untraced = to_ms (closed_loop ~seconds:a.seconds op) in
  if not a.trace then begin
    let rss = peak_rss_mb () in
    let setup_s = setup_median ~reps:(if a.tiny then 2 else 51) ~first ~drop:ignore setup in
    end_to_end r ~setup_s ~rss ~p50:(pct untraced 50.0) ~p95:(pct untraced 95.0)
      ~ok_ratio:(ok_share r)
  end
  else begin
    results := [];
    let traced_ms, sp =
      traced ~capacity:(1 lsl 17) (fun () -> to_ms (closed_loop ~seconds:a.seconds op))
    in
    span_layers r sp ~ops:(List.length traced_ms);
    ebf_layers r !results;
    let after = to_ms (closed_loop ~seconds:a.seconds op) in
    overhead r ~traced:(median traced_ms) ~before:(median untraced) ~after:(median after);
    set r "failed_ratio" (1.0 -. ok_share r)
  end;
  r

(* ------------------------------------------------------------------ *)
(* eco_resolve                                                          *)
(* ------------------------------------------------------------------ *)

(* the skew the base instance's baseline route is asked for, x radius *)
let eco_skew = 0.5

(* r3s under the seed's symmetry, at the window the baseline router
   achieves with skew bound [eco_skew] x radius, on its topology (the
   [Protocol.run_baseline] protocol) *)
let eco_base ~seed spec =
  let inst0 = transformed seed (Benchmarks.instance spec) in
  let b =
    Bst.route ~skew_bound:(eco_skew *. Instance.radius inst0)
      ?source:inst0.Instance.source inst0.Instance.sinks
  in
  let m = Instance.num_sinks inst0 in
  let inst =
    Instance.with_bounds inst0 ~lower:(Array.make m b.Bst.dmin)
      ~upper:(Array.make m b.Bst.dmax)
  in
  (inst, b.Bst.topology)

(* A topology-preserving edit: a sink's window moved by up to 3% of the
   base window at each end, or a sink nudged by up to 4 units. Windows
   are drawn around the base window, so a long chain does not drift. *)
let next_edit rng ~(base : Instance.t) =
  let k = Prng.int rng (Instance.num_sinks base) in
  if Prng.bool rng then begin
    let l = base.Instance.lower.(k) and u = base.Instance.upper.(k) in
    let w = 0.03 *. (u -. l) in
    let lower = max 0.0 (l +. Prng.float_range rng (-.w) w) in
    let upper = max lower (u +. Prng.float_range rng (-.w) w) in
    Instance.Edit.Set_bounds { sink = k; lower; upper }
  end
  else
    Instance.Edit.Move_sink
      { sink = k; dx = Prng.float_range rng (-4.0) 4.0;
        dy = Prng.float_range rng (-4.0) 4.0 }

let eco_options cache = { Ebf.default_options with Ebf.cache = Some cache }

let run_eco a =
  let r = new_report () in
  let spec = spec_for ~tiny:a.tiny ~full:false "r3s" in
  let setup () =
    let base, tree = eco_base ~seed:a.seed spec in
    let cache = Cache.create () in
    let parent = Ebf.solve ~options:(eco_options cache) base tree in
    if not (is_optimal parent) then failwith "eco_resolve: parent solve not optimal";
    (base, tree, cache)
  in
  let (base, tree, cache), first = timed setup in
  let rng = Prng.create (0x5eed + a.seed) in
  let cur = ref base in
  let last = ref None in
  let results = ref [] in
  let op () =
    let edit = next_edit rng ~base in
    let (edited, res), dt =
      timed (fun () ->
          Trace.span "bench.op" (fun () ->
              let edited =
                Trace.span "bench.edit" (fun () -> Instance.Edit.apply !cur edit)
              in
              match edited with
              | Error _ -> (None, None)
              | Ok inst -> (Some inst, Some (Ebf.solve ~options:(eco_options cache) inst tree))))
    in
    (match (edited, res) with
    | Some inst, Some res when is_optimal res ->
      count_op r true;
      cur := inst;
      last := Some res;
      results := res :: !results
    | _ ->
      count_op r false;
      Printf.eprintf "eco_resolve: edit %s failed\n%!" (Instance.Edit.op_name edit));
    dt
  in
  let untraced = to_ms (closed_loop ~seconds:a.seconds op) in
  let rss = peak_rss_mb () in
  let traced_window () =
    results := [];
    let c0 = Cache.stats cache in
    let traced_ms, sp =
      traced ~capacity:(1 lsl 20) (fun () -> to_ms (closed_loop ~seconds:a.seconds op))
    in
    span_layers r sp ~ops:(List.length traced_ms);
    ebf_layers r !results;
    cache_layers r c0 (Cache.stats cache);
    set r "eco.warm_pivots_per_op"
      (mean (List.map (fun (x : Ebf.result) -> float_of_int x.Ebf.lp_iterations) !results));
    let after = to_ms (closed_loop ~seconds:a.seconds op) in
    overhead r ~traced:(median traced_ms) ~before:(median untraced) ~after:(median after)
  in
  if a.trace then traced_window ();
  (* the chain's final instance, re-solved cold, must reach the warm
     answer's objective; a mismatch marks the last op wrong *)
  (match !last with
  | Some warm ->
    let cold = Ebf.solve !cur tree in
    let rel = Float.abs (cold.Ebf.objective -. warm.Ebf.objective)
              /. Float.max 1.0 (Float.abs cold.Ebf.objective) in
    let ok =
      is_optimal cold && rel <= 1e-9
      && Result.is_ok (Ebf.check_lengths !cur tree warm.Ebf.lengths)
    in
    if not ok then begin
      r.failed <- r.failed + 1;
      Printf.eprintf "eco_resolve: warm objective %.9f, cold %.9f\n%!"
        warm.Ebf.objective cold.Ebf.objective
    end
  | None -> ());
  if a.trace then
    set r "failed_ratio" (1.0 -. ok_share r)
  else begin
    let setup_s = setup_median ~reps:(if a.tiny then 2 else 3) ~first ~drop:ignore setup in
    end_to_end r ~setup_s ~rss ~p50:(pct untraced 50.0) ~p95:(pct untraced 95.0)
      ~ok_ratio:(ok_share r)
  end;
  r

(* ------------------------------------------------------------------ *)
(* serve_tiny                                                           *)
(* ------------------------------------------------------------------ *)

let serve_rps = 60.0

(* a request that answers ok later than this after its due time misses
   the service-level objective *)
let slo_ms = 100.0

let serve_benches = [| "prim1s"; "prim2s"; "r1s"; "r3s" |]

(* The 32-request mix: four tiny benchmarks x eight seeds. The
   benchmark seed rotates the order the mix is sent in rather than
   offsetting the sink fields, so every seed serves the same 32
   instances; fresh fields per seed added their own spread to latency
   figures that already carry the shared machine's. *)
let mix_size = 32

let mix_item ~seed i =
  let i = i + seed in
  (serve_benches.(i mod 4), i / 4 mod 8)

let request_line ~seed ~id i =
  let bench, s = mix_item ~seed i in
  Printf.sprintf "{\"id\": \"%s\", \"bench\": \"%s\", \"size\": \"tiny\", \"seed\": %d}"
    id bench s

type conn = { fd : Unix.file_descr; mutable partial : string; mutable alive : bool }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; partial = ""; alive = true }

let write_line c line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec put off =
    if off < Bytes.length b then
      match Unix.write c.fd b off (Bytes.length b - off) with
      | w -> put (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off
  in
  try put 0 with Unix.Unix_error _ -> c.alive <- false

let read_buf = Bytes.create 65536

(* waits up to [timeout] for input on the live connections and hands
   every complete line to [on_line] *)
let pump conns timeout on_line =
  let live = List.filter (fun c -> c.alive) conns in
  if live = [] then Unix.sleepf timeout
  else
    match Unix.select (List.map (fun c -> c.fd) live) [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      List.iter
        (fun c ->
          if List.mem c.fd ready then
            match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
            | 0 -> c.alive <- false
            | n ->
              let parts =
                String.split_on_char '\n' (c.partial ^ Bytes.sub_string read_buf 0 n)
              in
              let rec go = function
                | [] -> ()
                | [ rest ] -> c.partial <- rest
                | l :: rest -> on_line c l; go rest
              in
              go parts
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ -> c.alive <- false)
        live

type outcome = Pending | Answered_ok | Refused | Failed

(* How a pass sends its requests. [Open offsets]: request [i] is due at
   [offsets.(i)] seconds after the start, whatever the daemon does, and
   goes out on connection [i mod conns]. [Closed seconds]: each
   connection sends its next request as soon as its previous one is
   answered, until [seconds] have passed; a request is due when it is
   sent. *)
type schedule = Open of float array | Closed of float

(* One pass. Latency runs from the due time, so in an open loop a
   stalled generator or daemon shows in every later request. Refusals
   are final (no retry). Requests still unanswered [drain] seconds after
   the last send count as failed. *)
type pass = {
  outcomes : outcome array;
  latency_ms : float array;  (* from due time; valid for Answered_ok *)
  lag_max_ms : float;  (* worst send time minus due time *)
  bytes : int;  (* request plus response bytes *)
}

let run_pass conns ~prefix ~seed ~schedule ~drain =
  let t_start = now () in
  let cap, t_end =
    match schedule with
    | Open offsets -> (Array.length offsets, infinity)
    | Closed seconds -> (int_of_float (seconds *. 4000.0) + 16, t_start +. seconds)
  in
  let due =
    match schedule with
    | Open offsets -> Array.map (fun d -> t_start +. d) offsets
    | Closed _ -> Array.make cap 0.0
  in
  let outcomes = Array.make cap Pending and latency_ms = Array.make cap 0.0 in
  let bytes = ref 0 and lag = ref 0.0 and pending = ref 0 and sent = ref 0 in
  let plen = String.length prefix in
  let send c =
    let i = !sent in
    let line = request_line ~seed ~id:(prefix ^ string_of_int i) i in
    lag := Float.max !lag (now () -. due.(i));
    bytes := !bytes + String.length line + 1;
    incr pending;
    incr sent;
    write_line c line
  in
  let classify line t =
    bytes := !bytes + String.length line + 1;
    match Json.parse line with
    | Error _ -> ()
    | Ok j -> (
      let idx =
        match Json.member "id" j with
        | Some (Json.Str s) when String.length s > plen && String.sub s 0 plen = prefix ->
          int_of_string_opt (String.sub s plen (String.length s - plen))
        | _ -> None
      in
      match idx with
      | Some i when i >= 0 && i < !sent && outcomes.(i) = Pending ->
        let flag k = Json.member k j = Some (Json.Bool true) in
        let code =
          match Option.bind (Json.member "error" j) (Json.member "code") with
          | Some (Json.Str c) -> c
          | _ -> ""
        in
        outcomes.(i) <-
          (if flag "ok" then
             (* an ok answer must be validated and certified *)
             if flag "validated" && flag "certified" then Answered_ok else Failed
           else if code = "overloaded" || code = "breaker_open" then Refused
           else Failed);
        latency_ms.(i) <- 1e3 *. (t -. due.(i))
      | _ -> ())
  in
  let on_line c line =
    let t = now () in
    classify line t;
    decr pending;
    match schedule with
    | Closed _ when t < t_end && !sent < cap ->
      due.(!sent) <- t;
      send c
    | _ -> ()
  in
  (match schedule with
  | Open _ ->
    let conns_a = Array.of_list conns in
    while !sent < cap do
      let t = now () in
      if t >= due.(!sent) then send conns_a.(!sent mod Array.length conns_a)
      else pump conns (Float.min 0.05 (due.(!sent) -. t)) on_line
    done
  | Closed _ ->
    List.iter
      (fun c ->
        due.(!sent) <- now ();
        send c)
      conns;
    while now () < t_end && !pending > 0 do
      pump conns (Float.min 0.05 (t_end -. now ())) on_line
    done);
  let deadline = now () +. drain in
  while !pending > 0 && now () < deadline && List.exists (fun c -> c.alive) conns do
    pump conns 0.05 on_line
  done;
  let n = !sent in
  let outcomes = Array.sub outcomes 0 n in
  Array.iteri (fun i o -> if o = Pending then outcomes.(i) <- Failed) outcomes;
  { outcomes; latency_ms = Array.sub latency_ms 0 n; lag_max_ms = 1e3 *. !lag; bytes = !bytes }

(* The pass cut into consecutive sub-windows of at least 200 requests
   (so a p95 has 10 samples beyond it); the percentile is taken in each
   and the median over sub-windows reported. A stall of the shared
   machine then spoils one sub-window instead of the whole figure. *)
let sub_window_pct p q =
  let n = Array.length p.latency_ms in
  let k = max 1 (n / 200) in
  median
    (List.init k (fun w ->
         let acc = ref [] in
         for i = w * n / k to ((w + 1) * n / k) - 1 do
           if p.outcomes.(i) = Answered_ok then acc := p.latency_ms.(i) :: !acc
         done;
         pct !acc q))

let ok_latencies p =
  let acc = ref [] in
  Array.iteri (fun i o -> if o = Answered_ok then acc := p.latency_ms.(i) :: !acc) p.outcomes;
  !acc

(* answered ok within [slo_ms] of the due time *)
let slo_ok p =
  List.length (List.filter (fun ms -> ms <= slo_ms) (ok_latencies p))

let count_outcome p o =
  Array.fold_left (fun a x -> if x = o then a + 1 else a) 0 p.outcomes

(* one synchronous request on [c], for the metrics op *)
let rpc c line ~id =
  write_line c line;
  let reply = ref None in
  let deadline = now () +. 30.0 in
  while !reply = None && now () < deadline && c.alive do
    pump [ c ] 0.1 (fun _ l ->
        match Json.parse l with
        | Ok j when Json.member "id" j = Some (Json.Str id) -> reply := Some j
        | _ -> ())
  done;
  !reply

(* the daemon's own solve-latency histogram (bucket bounds, ms) *)
let server_histogram c =
  match rpc c "{\"id\": \"metrics\", \"op\": \"metrics\"}" ~id:"metrics" with
  | None -> None
  | Some j ->
    let samples = match Json.member "metrics" j with Some (Json.Arr l) -> l | _ -> [] in
    let nums key s =
      match Json.member key s with
      | Some (Json.Arr l) -> Array.of_list (List.filter_map Json.num l)
      | _ -> [||]
    in
    List.find_map
      (fun s ->
        let solve_op =
          Option.bind (Json.member "labels" s) (Json.member "op") = Some (Json.Str "solve")
        in
        if Json.member "name" s = Some (Json.Str "lubt_serve_request_latency_ms") && solve_op
        then
          Some
            { Metrics.h_bounds = nums "bounds" s;
              h_counts = Array.map int_of_float (nums "counts" s);
              h_sum = Option.value ~default:0.0 (Option.bind (Json.member "sum" s) Json.num);
              h_count =
                int_of_float
                  (Option.value ~default:0.0 (Option.bind (Json.member "count" s) Json.num)) }
        else None)
      samples

(* histogram of the observations between two snapshots *)
let histogram_delta (a : Metrics.histogram_snapshot) (b : Metrics.histogram_snapshot) =
  { b with
    Metrics.h_counts = Array.mapi (fun i c -> c - a.Metrics.h_counts.(i)) b.Metrics.h_counts;
    h_sum = b.Metrics.h_sum -. a.Metrics.h_sum;
    h_count = b.Metrics.h_count - a.Metrics.h_count }

type daemon = {
  handle : Serve.handle;
  conns : conn list;
  cache : Cache.t;
  warm_failed : int;
}

let socket_path rep =
  (try Unix.mkdir "_build" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Printf.sprintf "_build/perfbench-%d-%d.sock" (Unix.getpid ()) rep

let stop_daemon d =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) d.conns;
  ignore (Serve.shutdown d.handle)

(* spawn, connect, and answer every request of the mix once so that the
   measured window sees a warm cache *)
let start_daemon ~seed rep =
  let path = socket_path rep in
  let cache = Cache.create () in
  let cfg =
    { Serve.default_config with Serve.socket = Some path; jobs = 2; cache = Some cache }
  in
  let handle = ok_or_fail (Serve.spawn cfg) in
  let conns = [ connect path; connect path ] in
  let warm =
    run_pass conns ~prefix:"w" ~seed ~schedule:(Open (Array.make mix_size 0.0)) ~drain:60.0
  in
  { handle; conns; cache; warm_failed = mix_size - count_outcome warm Answered_ok }

(* the open loop independent users make: [serve_rps] requests a second
   over both connections, whatever the daemon's pace *)
let open_window d ~seed ~seconds ~prefix =
  let n = max 1 (int_of_float (Float.round (serve_rps *. seconds))) in
  run_pass d.conns ~prefix ~seed
    ~schedule:(Open (Array.init n (fun i -> float_of_int i /. serve_rps)))
    ~drain:30.0

(* the closed loop of the gated figures: one request in flight per
   connection, so both workers stay busy *)
let closed_window d ~seed ~seconds ~prefix =
  run_pass d.conns ~prefix ~seed ~schedule:(Closed seconds) ~drain:30.0

(* In-process split of one request over the same mix, closed loop with
   warm caches: for each request in turn, the full protocol path, the
   baseline route alone and the certified solve alone, back to back so
   that the three times of one request see the same machine. Returns the
   per-request (response, route, solve) times in ms and the solve
   results for the work counters. *)
let serve_split ~seed ~passes =
  let resp_cache = Cache.create () and solve_cache = Cache.create () in
  let options =
    { Ebf.default_options with Ebf.check = Certify.Full; cache = Some solve_cache }
  in
  let samples = ref [] and results = ref [] and certified = ref true in
  let one ~record i =
    let line = request_line ~seed ~id:"s" i in
    let _, response_s = timed (fun () -> Serve.response_of_request ~cache:resp_cache line) in
    let bench, s = mix_item ~seed i in
    let spec = Benchmarks.find Benchmarks.Tiny bench in
    let spec = { spec with Benchmarks.seed = spec.Benchmarks.seed + s } in
    let b, route_s = timed (fun () -> Protocol.run_baseline spec ~skew_rel:0.5) in
    let inst0 = b.Protocol.bst.Bst.routed.Lubt_core.Routed.instance in
    let m = Instance.num_sinks inst0 in
    let inst =
      Instance.with_bounds inst0
        ~lower:(Array.make m (b.Protocol.shortest_rel *. b.Protocol.radius))
        ~upper:(Array.make m (b.Protocol.longest_rel *. b.Protocol.radius))
    in
    let rep, solve_s =
      timed (fun () -> Lubt.solve ~options inst b.Protocol.bst.Bst.topology)
    in
    if record then begin
      samples := (1e3 *. response_s, 1e3 *. route_s, 1e3 *. solve_s) :: !samples;
      match rep with
      | Ok rep -> results := rep.Lubt.ebf :: !results
      | Error _ -> certified := false
    end
  in
  for i = 0 to mix_size - 1 do one ~record:false i done;
  for _ = 1 to passes do for i = 0 to mix_size - 1 do one ~record:true i done done;
  (!samples, !results, !certified)

let run_serve a =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let r = new_report () in
  let rep = ref 0 in
  let setup () =
    incr rep;
    start_daemon ~seed:a.seed !rep
  in
  (* warm-up answers are checked like any other *)
  let count_warm d =
    r.attempted <- r.attempted + mix_size;
    r.failed <- r.failed + d.warm_failed;
    if d.warm_failed > 0 then
      Printf.eprintf "serve_tiny: %d warm-up requests failed\n%!" d.warm_failed
  in
  let d, first = timed setup in
  count_warm d;
  let account p = Array.iter (fun o -> count_op r (o = Answered_ok)) p.outcomes in
  let sent p = float_of_int (Array.length p.outcomes) in
  let conn0 = List.hd d.conns in
  let h0 = server_histogram conn0 and c0 = Cache.stats d.cache in
  let p = closed_window d ~seed:a.seed ~seconds:a.seconds ~prefix:"q" in
  account p;
  let h1 = server_histogram conn0 and c1 = Cache.stats d.cache in
  let p50 = sub_window_pct p 50.0 in
  if not a.trace then begin
    let rss = peak_rss_mb () in
    stop_daemon d;
    let setup_s =
      setup_median ~reps:(if a.tiny then 2 else 3) ~first
        ~drop:(fun d -> count_warm d; stop_daemon d)
        setup
    in
    end_to_end r ~setup_s ~rss ~p50 ~p95:(sub_window_pct p 95.0)
      ~ok_ratio:(float_of_int (slo_ok p) /. sent p)
  end
  else begin
    let pt, sp =
      traced ~capacity:(1 lsl 20) (fun () ->
          closed_window d ~seed:a.seed ~seconds:a.seconds ~prefix:"t")
    in
    account pt;
    let pu = closed_window d ~seed:a.seed ~seconds:a.seconds ~prefix:"u" in
    account pu;
    let po = open_window d ~seed:a.seed ~seconds:a.seconds ~prefix:"o" in
    account po;
    stop_daemon d;
    span_layers r sp ~ops:(count_outcome pt Answered_ok);
    cache_layers r c0 c1;
    let samples, results, certified =
      serve_split ~seed:a.seed ~passes:(if a.tiny then 1 else 3)
    in
    if not certified then r.failed <- r.failed + 1;
    ebf_layers r results;
    let column f = List.map f samples in
    let routes = column (fun (_, rt, _) -> rt) in
    set r "bst.route_ms" (mean routes);
    let resp50 = median (column (fun (rs, _, _) -> rs)) in
    set r "serve.response_ms_p50" resp50;
    set r "serve.route_ms_p50" (median routes);
    set r "serve.solve_ms_p50" (median (column (fun (_, _, sv) -> sv)));
    set r "serve.render_parse_ms_p50" (median (column (fun (rs, rt, sv) -> rs -. rt -. sv)));
    set r "serve.queue_wait_ms_p50" (p50 -. resp50);
    (match (h0, h1) with
    | Some h0, Some h1 ->
      let h = histogram_delta h0 h1 in
      set r "serve.server_ms_p50" (Metrics.quantile h 0.5);
      set r "serve.server_ms_p95" (Metrics.quantile h 0.95)
    | _ -> r.failed <- r.failed + 1);
    set r "serve.bytes_per_request" (float_of_int p.bytes /. sent p);
    let open_ms = ok_latencies po in
    set r "serve.open_ms_p50" (pct open_ms 50.0);
    set r "serve.open_ms_p95" (pct open_ms 95.0);
    set r "serve.slo_ok_ratio" (float_of_int (slo_ok po) /. sent po);
    set r "serve.generator_lag_ms_max" po.lag_max_ms;
    set r "serve.sent" (sent po);
    set r "serve.ok" (float_of_int (count_outcome po Answered_ok));
    set r "serve.refused" (float_of_int (count_outcome po Refused));
    set r "serve.failed" (float_of_int (count_outcome po Failed));
    overhead r ~traced:(sub_window_pct pt 50.0) ~before:p50 ~after:(sub_window_pct pu 50.0);
    set r "failed_ratio" (1.0 -. ok_share r)
  end;
  r

(* ------------------------------------------------------------------ *)

let () =
  let a = parse_args Sys.argv in
  let r =
    match a.workload with
    | "paper_full" -> run_paper a
    | "eco_resolve" -> run_eco a
    | _ -> run_serve a
  in
  print_report r ~trace:a.trace
