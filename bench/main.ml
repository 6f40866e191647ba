(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Section 8) and times the major pipeline stages with
   Bechamel.

   Usage:
     dune exec bench/main.exe                    # everything, scaled size
     dune exec bench/main.exe -- table1          # one artifact: table1,
                                                 #   table2, table3, tradeoff,
                                                 #   ablation, extensions,
                                                 #   sweep, timing
     dune exec bench/main.exe -- table1 --full   # paper-sized sink sets
     dune exec bench/main.exe -- table1 --tiny   # smoke-run sizes
     dune exec bench/main.exe -- table1 --jobs 4 # domain-parallel sweeps
     dune exec bench/main.exe -- sweep --jobs 4  # reference-corpus batch run
     dune exec bench/main.exe -- timing --json BENCH_lp.json
                                                 # machine-readable timings
                                                 #   plus solver counters

   Unknown flags and commands are rejected (exit 1): a typo must never
   silently fall back to the default sweep. *)

module Benchmarks = Lubt_data.Benchmarks
module Tables = Lubt_experiments.Tables
module Protocol = Lubt_experiments.Protocol
module Batch = Lubt_experiments.Batch
module Instance = Lubt_core.Instance
module Ebf = Lubt_core.Ebf
module Zeroskew = Lubt_core.Zeroskew
module Embed = Lubt_core.Embed
module Simplex = Lubt_lp.Simplex
module Bst = Lubt_bst.Bst_dme
module Bench_diff = Lubt_experiments.Bench_diff
module Trace = Lubt_obs.Trace
module Chrome_trace = Lubt_obs.Chrome_trace

(* ------------------------------------------------------------------ *)
(* Table regeneration                                                   *)
(* ------------------------------------------------------------------ *)

let run_table1 ~jobs size =
  let rows, secs = Protocol.time (fun () -> Tables.table1 ~jobs ~size ()) in
  Tables.print_table1 rows;
  Printf.printf "(generated in %.1fs, jobs=%d)\n%!" secs jobs

let run_table2 ~jobs size =
  let rows, secs = Protocol.time (fun () -> Tables.table2 ~jobs ~size ()) in
  Tables.print_table2 rows;
  Printf.printf "(generated in %.1fs, jobs=%d)\n%!" secs jobs

let run_table3 ~jobs size =
  let rows, secs = Protocol.time (fun () -> Tables.table3 ~jobs ~size ()) in
  Tables.print_table3 rows;
  Printf.printf "(generated in %.1fs, jobs=%d)\n%!" secs jobs

let run_tradeoff ~jobs size =
  let rows, secs = Protocol.time (fun () -> Tables.tradeoff ~jobs ~size ()) in
  Tables.print_tradeoff rows;
  Printf.printf "(generated in %.1fs, jobs=%d)\n%!" secs jobs

(* ------------------------------------------------------------------ *)
(* Reference-corpus batch sweep                                         *)
(* ------------------------------------------------------------------ *)

let corpus_for size seed = Batch.corpus ~size ~per_bench:5 ~seed ()

let run_sweep ~jobs ~seed size =
  let specs = corpus_for size seed in
  let s = Batch.run ~jobs specs in
  Printf.printf "=== corpus sweep: %d instances, jobs=%d ===\n"
    (List.length s.Batch.outcomes) s.Batch.jobs;
  List.iter
    (fun (o : Batch.outcome) ->
      Printf.printf "%-14s %-9s obj %18.6f  rows %4d  iters %4d  %6.1f ms%s\n"
        o.Batch.spec.Batch.id o.Batch.status o.Batch.objective o.Batch.lp_rows
        o.Batch.lp_iterations
        (o.Batch.wall_s *. 1e3)
        (match o.Batch.error with Some e -> "  ERROR: " ^ e | None -> ""))
    s.Batch.outcomes;
  Printf.printf "wall %.3fs, %d failures, %d simplex iterations total\n%!"
    s.Batch.wall_s s.Batch.failures s.Batch.merged.Simplex.iterations;
  if s.Batch.failures > 0 then exit 1

let run_ablation size =
  Tables.print_ablation (Tables.ablation ~size ());
  Tables.print_beam_ablation (Tables.beam_ablation ~size ());
  Tables.print_topo_opt_ablation (Tables.topo_opt_ablation ~size ())

let run_extensions size =
  Tables.print_optimality_gap (Tables.optimality_gap ~size ());
  Tables.print_elmore_table (Tables.elmore_table ());
  Tables.print_global_routing_table (Tables.global_routing_table ~size ());
  let rows, secs =
    Protocol.time (fun () -> Tables.table1 ~size ~clustered:true ())
  in
  Printf.printf "\n(Table 1 on clustered-sink fields, closer to real clock pins)\n";
  Tables.print_table1 rows;
  Printf.printf "(generated in %.1fs)\n%!" secs

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure plus the pipeline     *)
(* stages, on the tiny size so a timing run stays short. Each timed      *)
(* benchmark optionally carries a probe that reruns the workload once    *)
(* to harvest solver counters for the JSON record.                       *)
(* ------------------------------------------------------------------ *)

type timed_bench = {
  tname : string;
  test : Bechamel.Test.t;
  probe : (unit -> Ebf.result) option;
}

let timing_tests ?(seed = 0) () =
  let open Bechamel in
  let tiny = Benchmarks.Tiny in
  let spec = Benchmarks.find tiny "prim1s" in
  (* [--seed N] offsets the benchmark's sink-field seed: same sizes, a
     different deterministic instance (CI smoke-tests two seeds) *)
  let spec = { spec with Benchmarks.seed = spec.Benchmarks.seed + seed } in
  let sinks = Benchmarks.sinks spec in
  let source = Benchmarks.source spec in
  let baseline = Protocol.run_baseline spec ~skew_rel:0.5 in
  let topo = baseline.Protocol.bst.Bst.topology in
  let inst =
    Instance.uniform_bounds ~source ~sinks
      ~lower:(baseline.Protocol.bst.Bst.dmin)
      ~upper:(baseline.Protocol.bst.Bst.dmax) ()
  in
  let relaxed = Instance.uniform_bounds ~source ~sinks ~lower:0.0 ~upper:infinity () in
  (* certified run: same workload as "ebf lazy LP" plus a Full
     a-posteriori certificate, so the delta between the two entries is
     the certification overhead *)
  let certified =
    { Ebf.default_options with Ebf.check = Lubt_lp.Certify.Full }
  in
  (* ECO warm-start pair: the same bounds-edited child instance solved
     cold and from the parent's cached basis. The cache is seeded with
     the parent optimum once, outside the measured region; the first
     warm solve is a parent hit and stores the child's own key, so the
     steady state the bench measures is the exact-hit re-solve. The
     delta between the two entries is the warm-vs-cold speedup recorded
     in BENCH_lp.json. *)
  let eco_edited =
    let m = Instance.num_sinks inst in
    Instance.with_bounds inst
      ~lower:(Array.make m (baseline.Protocol.bst.Bst.dmin *. 0.98))
      ~upper:(Array.make m (baseline.Protocol.bst.Bst.dmax *. 1.02))
  in
  let eco_cache = Lubt_lp.Basis_cache.create () in
  let eco_warm =
    { Ebf.default_options with Ebf.cache = Some eco_cache }
  in
  ignore (Ebf.solve ~options:eco_warm inst topo);
  let plain tname test = { tname; test; probe = None } in
  let lp tname test probe = { tname; test; probe = Some probe } in
  [
    (* one bench per table/figure *)
    plain "table1 (tiny)"
      (Test.make ~name:"table1 (tiny)"
         (Staged.stage (fun () -> ignore (Tables.table1 ~size:tiny ()))));
    plain "table2 (tiny)"
      (Test.make ~name:"table2 (tiny)"
         (Staged.stage (fun () -> ignore (Tables.table2 ~size:tiny ()))));
    plain "table3 (tiny)"
      (Test.make ~name:"table3 (tiny)"
         (Staged.stage (fun () -> ignore (Tables.table3 ~size:tiny ()))));
    plain "figure8 tradeoff (tiny)"
      (Test.make ~name:"figure8 tradeoff (tiny)"
         (Staged.stage (fun () -> ignore (Tables.tradeoff ~size:tiny ()))));
    (* pipeline stages *)
    plain "bst route (tiny, 24 sinks)"
      (Test.make ~name:"bst route (tiny, 24 sinks)"
         (Staged.stage (fun () ->
              ignore
                (Bst.route ~skew_bound:(0.5 *. baseline.Protocol.radius)
                   ~source sinks))));
    lp "ebf lazy LP"
      (Test.make ~name:"ebf lazy LP"
         (Staged.stage (fun () -> ignore (Ebf.solve inst topo))))
      (fun () -> Ebf.solve inst topo);
    lp "ebf lazy LP (certified)"
      (Test.make ~name:"ebf lazy LP (certified)"
         (Staged.stage (fun () -> ignore (Ebf.solve ~options:certified inst topo))))
      (fun () -> Ebf.solve ~options:certified inst topo);
    lp "ebf eco re-solve (cold)"
      (Test.make ~name:"ebf eco re-solve (cold)"
         (Staged.stage (fun () -> ignore (Ebf.solve eco_edited topo))))
      (fun () -> Ebf.solve eco_edited topo);
    lp "ebf eco re-solve (warm cache)"
      (Test.make ~name:"ebf eco re-solve (warm cache)"
         (Staged.stage (fun () ->
              ignore (Ebf.solve ~options:eco_warm eco_edited topo))))
      (fun () -> Ebf.solve ~options:eco_warm eco_edited topo);
    lp "ebf eager LP"
      (Test.make ~name:"ebf eager LP"
         (Staged.stage (fun () ->
              ignore
                (Ebf.solve
                   ~options:{ Ebf.default_options with Ebf.lazy_steiner = false }
                   inst topo))))
      (fun () ->
        Ebf.solve
          ~options:{ Ebf.default_options with Ebf.lazy_steiner = false }
          inst topo);
    plain "zero-skew closed form"
      (Test.make ~name:"zero-skew closed form"
         (Staged.stage (fun () -> ignore (Zeroskew.balance relaxed topo))));
    plain "embedding"
      (Test.make ~name:"embedding"
         (Staged.stage
            (let lengths = (Ebf.solve inst topo).Ebf.lengths in
             fun () -> ignore (Embed.place inst topo lengths))));
  ]

let run_timing ?(seed = 0) ?(jobs = 1) json_out =
  let open Bechamel in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~stabilize:false ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0
      ~predictors:[| Measure.run |]
  in
  Printf.printf "\n=== Bechamel timings (tiny benchmarks) ===\n%!";
  let entries =
    List.map
      (fun tb ->
        let results =
          Benchmark.all cfg instances
            (Test.make_grouped ~name:"g" [ tb.test ])
        in
        let analysed = Analyze.all ols (List.hd instances) results in
        let ms = ref nan in
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              ms := est /. 1e6;
              Printf.printf "%-40s %12.3f ms/run\n%!" name (est /. 1e6)
            | _ -> Printf.printf "%-40s (no estimate)\n%!" name)
          analysed;
        let solver, ebf_result =
          match tb.probe with
          | None -> (None, None)
          | Some probe ->
            let r = probe () in
            (Some r.Ebf.lp_stats, Some r)
        in
        {
          Protocol.bench_name = tb.tname;
          ms_per_run = !ms;
          solver;
          ebf_result;
        })
      (timing_tests ~seed ())
  in
  match json_out with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Protocol.bench_json ~jobs ~size:"tiny" entries);
    close_out oc;
    Printf.printf "wrote %s (%d benchmark records)\n%!" path
      (List.length entries)

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* serve: daemon load generator                                         *)
(* ------------------------------------------------------------------ *)

module Serve = Lubt_experiments.Serve
module Json = Lubt_obs.Json
module Clock = Lubt_obs.Clock
module Metrics = Lubt_obs.Metrics

(* nearest-rank percentile over a sorted sample array; the shared
   definition in Stats is property-tested against the bucketed
   histogram quantile the daemon reports *)
let percentile = Lubt_util.Stats.percentile

(* the request mix: rotate over the four tiny paper benchmarks with a
   rotating seed offset, so consecutive requests hit different sink
   fields and the pool actually sees heterogeneous work. With
   [degrade_every > 0], every Nth request opts into the daemon's
   degradation ladder under a deliberately tiny deadline — guaranteeing
   degraded (heuristic-rung) answers in a chaos run. *)
let load_request ~degrade_every i =
  let benches = [| "prim1s"; "prim2s"; "r1s"; "r3s" |] in
  let degrade =
    if degrade_every > 0 && i mod degrade_every = degrade_every - 1 then
      ", \"degrade\": true, \"time_limit\": 0.002"
    else ""
  in
  Printf.sprintf
    "{\"id\": \"q%d\", \"bench\": \"%s\", \"size\": \"tiny\", \"seed\": %d%s}"
    i benches.(i mod 4) (i / 4 mod 8) degrade

(* One pipelined connection of the load generator. [cs_inflight] holds
   the ids whose responses this connection still owes us: on a
   reconnect after ECONNRESET/EPIPE those are exactly the requests to
   resend, because their responses may have died with the old socket. *)
type cstate = {
  cs_index : int;
  mutable cs_fd : Unix.file_descr;
  mutable cs_buf : string;  (* bytes after the last newline *)
  cs_inflight : (string, unit) Hashtbl.t;
}

(* Open-loop load generator: [n = rps * duration] requests sent on a
   fixed schedule over [conns] pipelined connections, responses matched
   back to their send times by id. Open-loop (send times do not depend
   on completions) so a slow daemon shows up as latency, not as a
   silently lowered offered rate. Single-threaded select loop: the
   concurrency lives in the daemon, not the client.

   Fault tolerance: a connection that dies (ECONNRESET/EPIPE/EOF) is
   reopened and its in-flight requests are resent ([`Reconnects]);
   [overloaded]/[breaker_open] rejections are retried with jittered
   exponential backoff honouring the server's [retry_after_ms] hint
   ([`Retries]; only retry exhaustion counts as [`Rejected]).
   Latencies are measured from the FIRST send, so retries and
   reconnects show up as tail latency, not as dropped samples.

   [chaos_seed] arms the client half of the chaos harness: a seeded
   stream of malformed frames and hard connection resets (SO_LINGER 0,
   so the daemon sees RST, not FIN). *)
let run_load ~addr ~rps ~duration ~conns ~degrade_every ~chaos_seed =
  let n = max 1 (int_of_float (Float.round (rps *. duration))) in
  let sock_domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  let connect_new () =
    let fd = Unix.socket sock_domain Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    fd
  in
  let reconnects = ref 0 in
  let retries = ref 0 in
  let ok = ref 0 and failed = ref 0 and rejected = ref 0 in
  let degraded_ok = ref 0 in
  let malformed_pending = ref 0 in
  let conn_states =
    Array.init conns (fun i ->
        {
          cs_index = i;
          cs_fd = connect_new ();
          cs_buf = "";
          cs_inflight = Hashtbl.create 16;
        })
  in
  let reqs : (string, string) Hashtbl.t = Hashtbl.create n in
  let send_times : (string, float) Hashtbl.t = Hashtbl.create n in
  let attempts : (string, int) Hashtbl.t = Hashtbl.create 16 in
  (* (due time, id) — rescanned each loop turn; stays tiny *)
  let retryq : (float * string) list ref = ref [] in
  let latencies = ref [] in
  let chaos = Option.map Lubt_util.Prng.create chaos_seed in
  (* backoff jitter decorrelates retry bursts; it needs no external
     seed, only to not be constant *)
  let jitter = Lubt_util.Prng.create 0x5eed in
  let max_attempts = 5 in
  (* Reopen a dead connection and resend what it still owed. Mutually
     recursive with [send_on]: a resend that hits another dead socket
     reconnects again; each round trims the failure to fresh state, so
     the recursion terminates unless connect itself keeps failing. *)
  let rec reconnect cs =
    (try Unix.close cs.cs_fd with Unix.Unix_error _ -> ());
    cs.cs_buf <- "";
    incr reconnects;
    let rec tryconn attempt =
      match connect_new () with
      | fd -> cs.cs_fd <- fd
      | exception Unix.Unix_error _ when attempt < 3 ->
        Unix.sleepf 0.05;
        tryconn (attempt + 1)
    in
    tryconn 0;
    let owed = Hashtbl.fold (fun id () acc -> id :: acc) cs.cs_inflight [] in
    List.iter
      (fun id ->
        match Hashtbl.find_opt reqs id with
        | Some line -> send_on cs ~resend:true id line
        | None -> Hashtbl.remove cs.cs_inflight id)
      owed
  (* a short write (e.g. interrupted by a signal) would corrupt the
     pipelined JSON-lines stream: always write whole lines *)
  and send_on cs ~resend id line =
    if not resend then Hashtbl.replace cs.cs_inflight id ();
    let b = Bytes.of_string (line ^ "\n") in
    let len = Bytes.length b in
    let rec put off =
      if off < len then
        match Unix.write cs.cs_fd b off (len - off) with
        | w -> put (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> put off
    in
    try put 0
    with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.ECONNREFUSED
                          | Unix.EBADF), _, _) ->
      (* the id is in cs_inflight, so the reconnect resends it *)
      reconnect cs
  in
  let conn_of_id id =
    (* ids are "q<i>"; requests stick to their original connection *)
    match int_of_string_opt (String.sub id 1 (String.length id - 1)) with
    | Some i -> conn_states.(i mod conns)
    | None -> conn_states.(0)
  in
  let forget id =
    Hashtbl.remove send_times id;
    Hashtbl.remove reqs id;
    Hashtbl.remove attempts id;
    Hashtbl.remove (conn_of_id id).cs_inflight id
  in
  let handle_line line =
    if String.trim line <> "" then begin
      let t1 = Clock.now () in
      match Json.parse line with
      | Error _ -> incr failed
      | Ok j ->
        let id = match Json.member "id" j with
          | Some (Json.Str s) -> Some s
          | _ -> None
        in
        let is_ok = Json.member "ok" j = Some (Json.Bool true) in
        let err = Json.member "error" j in
        let code =
          match Option.bind err (Json.member "code") with
          | Some (Json.Str c) -> c
          | _ -> ""
        in
        (match id with
        | Some id ->
          (match Hashtbl.find_opt send_times id with
          | Some t0 ->
            if is_ok then begin
              forget id;
              incr ok;
              if Json.member "degraded" j = Some (Json.Bool true) then
                incr degraded_ok;
              latencies := ((t1 -. t0) *. 1e3) :: !latencies
            end
            else if code = "overloaded" || code = "breaker_open" then begin
              let a =
                (match Hashtbl.find_opt attempts id with
                | Some a -> a
                | None -> 0)
                + 1
              in
              if a > max_attempts then begin
                forget id;
                incr rejected
              end
              else begin
                Hashtbl.replace attempts id a;
                (* response arrived: the old send is settled, the id
                   now belongs to the retry queue, not the socket *)
                Hashtbl.remove (conn_of_id id).cs_inflight id;
                let hint =
                  match Option.bind err (Json.member "retry_after_ms") with
                  | Some (Json.Num ms) when ms > 0.0 -> ms /. 1e3
                  | _ -> 0.0
                in
                let backoff =
                  0.025 *. (2.0 ** float_of_int (a - 1))
                  *. (0.5 +. Lubt_util.Prng.float jitter 1.0)
                in
                let delay = Float.min 1.0 (Float.max hint backoff) in
                incr retries;
                retryq := (t1 +. delay, id) :: !retryq
              end
            end
            else begin
              forget id;
              incr failed
            end
          | None -> incr failed)
        | None ->
          (* the daemon answers a frame it could not parse with id
             null; when we injected the garbage ourselves, that reply
             is the expected ack, not a failure *)
          if code = "bad_request" && !malformed_pending > 0 then
            decr malformed_pending
          else incr failed)
    end
  in
  let read_ready timeout =
    let fd_list = Array.to_list (Array.map (fun cs -> cs.cs_fd) conn_states) in
    match Unix.select fd_list [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
    | ready, _, _ ->
      let buf = Bytes.create 65536 in
      Array.iter
        (fun cs ->
          if List.mem cs.cs_fd ready then
            match Unix.read cs.cs_fd buf 0 (Bytes.length buf) with
            | 0 ->
              (* server closed this session; reconnect (resending what
                 it owed) if anything is still outstanding *)
              if Hashtbl.length cs.cs_inflight > 0 then reconnect cs
            | r ->
              let data = cs.cs_buf ^ Bytes.sub_string buf 0 r in
              let lines = String.split_on_char '\n' data in
              let rec go = function
                | [] -> ()
                | [ last ] -> cs.cs_buf <- last
                | l :: rest -> handle_line l; go rest
              in
              go lines
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (_, _, _) -> reconnect cs)
        conn_states
  in
  let flush_retries () =
    let now = Clock.now () in
    let due, later = List.partition (fun (t, _) -> t <= now) !retryq in
    retryq := later;
    List.iter
      (fun (_, id) ->
        match Hashtbl.find_opt reqs id with
        | Some line -> send_on (conn_of_id id) ~resend:false id line
        | None -> ())
      due
  in
  (* the client half of the chaos plan, drawn per scheduled request *)
  let chaos_inject i =
    match chaos with
    | None -> ()
    | Some rng ->
      if Lubt_util.Prng.float rng 1.0 < 0.05 then begin
        let cs = conn_states.(Lubt_util.Prng.int rng conns) in
        incr malformed_pending;
        send_on cs ~resend:true
          (Printf.sprintf "chaos%d" i)
          "{\"op\": \"solve\", \"bench\":"
      end;
      if Lubt_util.Prng.float rng 1.0 < 0.04 then begin
        let cs = conn_states.(Lubt_util.Prng.int rng conns) in
        (* RST, not FIN: linger 0 discards the socket's queues, which
           is the reset path SIGPIPE handling and the daemon's
           single-closer discipline must survive *)
        (try Unix.setsockopt_optint cs.cs_fd Unix.SO_LINGER (Some 0)
         with Unix.Unix_error _ -> ());
        reconnect cs
      end
  in
  let t_start = Clock.now () in
  let sent = ref 0 in
  while !sent < n do
    let next = t_start +. (float_of_int !sent /. rps) in
    let now = Clock.now () in
    flush_retries ();
    if now >= next then begin
      let line = load_request ~degrade_every !sent in
      let id = Printf.sprintf "q%d" !sent in
      Hashtbl.replace reqs id line;
      Hashtbl.replace send_times id (Clock.now ());
      send_on (conn_of_id id) ~resend:false id line;
      chaos_inject !sent;
      incr sent
    end
    else read_ready (min 0.05 (next -. now))
  done;
  (* drain: every request was sent; wait (bounded) for the tail,
     still serving the retry queue *)
  let drain_deadline = Clock.now () +. 60.0 in
  while Hashtbl.length send_times > 0 && Clock.now () < drain_deadline do
    flush_retries ();
    read_ready 0.1
  done;
  let wall_s = Clock.now () -. t_start in
  Array.iter
    (fun cs -> try Unix.close cs.cs_fd with Unix.Unix_error _ -> ())
    conn_states;
  let unanswered = Hashtbl.length send_times in
  let lat = Array.of_list !latencies in
  Array.sort Float.compare lat;
  (`Sent n, `Ok !ok, `Rejected !rejected, `Failed (!failed + unanswered),
   `Wall wall_s, `Lat lat, `Reconnects !reconnects, `Retries !retries,
   `Degraded !degraded_ok)

(* Scrape the daemon's own per-op latency histograms through the
   [metrics] op and merge them into one server-side distribution — the
   client-vs-server cross-check. Server-side quantiles exclude client
   queueing and socket buffering, so they lower-bound the measured
   ones. Returns [None] when the daemon is unreachable or predates the
   op. *)
let scrape_server_latency addr =
  let sock_domain =
    match addr with Unix.ADDR_UNIX _ -> Unix.PF_UNIX | _ -> Unix.PF_INET
  in
  match Unix.socket sock_domain Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
    let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
    match
      Fun.protect ~finally (fun () ->
          Unix.connect fd addr;
          let line = "{\"id\": \"m\", \"op\": \"metrics\"}\n" in
          ignore (Unix.write_substring fd line 0 (String.length line));
          let buf = Bytes.create 65536 in
          let b = Buffer.create 4096 in
          let rec recv () =
            if not (String.contains (Buffer.contents b) '\n') then
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> ()
              | n ->
                Buffer.add_subbytes b buf 0 n;
                recv ()
          in
          recv ();
          let text = Buffer.contents b in
          match String.index_opt text '\n' with
          | Some i -> String.sub text 0 i
          | None -> text)
    with
    | exception Unix.Unix_error _ -> None
    | reply -> (
      match Json.parse reply with
      | Error _ -> None
      | Ok j ->
        let samples =
          match Json.member "metrics" j with Some (Json.Arr l) -> l | _ -> []
        in
        let floats_of key s =
          match Json.member key s with
          | Some (Json.Arr l) ->
            Some (Array.of_list (List.filter_map Json.num l))
          | _ -> None
        in
        let num_of key s =
          match Option.bind (Json.member key s) Json.num with
          | Some v -> v
          | None -> 0.0
        in
        List.fold_left
          (fun acc s ->
            if
              Json.member "name" s
              = Some (Json.Str "lubt_serve_request_latency_ms")
            then
              match (floats_of "bounds" s, floats_of "counts" s) with
              | Some bounds, Some counts ->
                let snap =
                  {
                    Metrics.h_bounds = bounds;
                    h_counts = Array.map int_of_float counts;
                    h_sum = num_of "sum" s;
                    h_count = int_of_float (num_of "count" s);
                  }
                in
                Some
                  (match acc with
                  | None -> snap
                  | Some a -> Metrics.merge_histogram a snap)
              | _ -> acc
            else acc)
          None samples))

let run_serve args =
  (* a daemon-side reset racing one of our writes must surface as
     EPIPE (and a reconnect), not kill the load generator *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rps = ref 20.0 in
  let duration = ref 5.0 in
  let conns = ref 8 in
  let jobs = ref 4 in
  let socket = ref None in
  let json_out = ref None in
  let degrade_every = ref 0 in
  let chaos_seed = ref None in
  let bad what =
    Printf.eprintf
      "%s\nusage: main.exe serve [--rps N] [--duration S] [--conns N] \
       [--jobs N] [--socket PATH] [--json FILE] [--degrade-every N] \
       [--chaos-seed N]\n"
      what;
    exit 1
  in
  let rec parse = function
    | [] -> ()
    | "--rps" :: v :: rest -> (
      match float_of_string_opt v with
      | Some r when r > 0.0 -> rps := r; parse rest
      | _ -> bad "--rps: need a positive number")
    | "--duration" :: v :: rest -> (
      match float_of_string_opt v with
      | Some d when d > 0.0 -> duration := d; parse rest
      | _ -> bad "--duration: need a positive number of seconds")
    | "--conns" :: v :: rest -> (
      match int_of_string_opt v with
      | Some c when c >= 1 -> conns := c; parse rest
      | _ -> bad "--conns: need a positive integer")
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 -> jobs := j; parse rest
      | _ -> bad "--jobs: need a positive integer")
    | "--socket" :: path :: rest -> socket := Some path; parse rest
    | "--json" :: file :: rest -> json_out := Some file; parse rest
    | "--degrade-every" :: v :: rest -> (
      match int_of_string_opt v with
      | Some k when k >= 0 -> degrade_every := k; parse rest
      | _ -> bad "--degrade-every: need a non-negative integer")
    | "--chaos-seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some s -> chaos_seed := Some s; parse rest
      | _ -> bad "--chaos-seed: need an integer")
    | a :: _ -> bad (Printf.sprintf "serve: unknown argument %S" a)
  in
  parse args;
  (* self-host unless --socket points at an external daemon: the bench
     then measures the library end to end in one process, which is also
     what CI runs *)
  let handle, addr =
    match !socket with
    | Some path -> (None, Unix.ADDR_UNIX path)
    | None ->
      let path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "lubt-bench-%d.sock" (Unix.getpid ()))
      in
      let cfg =
        { Serve.default_config with
          Serve.socket = Some path;
          jobs = !jobs;
          max_pending = 4096;
          (* the request mix cycles over 32 distinct workloads, so the
             warm-start cache converges on exact hits — the measured
             hit rate is a real service-level statistic, not 0 *)
          cache = Some (Lubt_lp.Basis_cache.create ()) }
      in
      (match Serve.spawn cfg with
      | Error msg -> Printf.eprintf "bench serve: %s\n" msg; exit 2
      | Ok h -> (Some h, Unix.ADDR_UNIX path))
  in
  let `Sent sent, `Ok ok, `Rejected rejected, `Failed failed, `Wall wall_s,
      `Lat lat, `Reconnects reconnects, `Retries retries, `Degraded degraded =
    run_load ~addr ~rps:!rps ~duration:!duration ~conns:!conns
      ~degrade_every:!degrade_every ~chaos_seed:!chaos_seed
  in
  (* scrape while the daemon is still up: its own latency histograms
     are the server half of the client-vs-server cross-check *)
  let server_lat = scrape_server_latency addr in
  (* the warm-start hit rate is only observable when we hosted the
     daemon ourselves; against an external --socket daemon it is nan
     (reported as null, and bench diff never gates _rate entries) *)
  let cache_hit_rate =
    match handle with
    | Some h ->
      let stats = Serve.shutdown h in
      let total = stats.Serve.cache_hits + stats.Serve.cache_misses in
      if total = 0 then nan
      else float_of_int stats.Serve.cache_hits /. float_of_int total
    | None -> nan
  in
  let p50 = percentile lat 50.0
  and p95 = percentile lat 95.0
  and p99 = percentile lat 99.0 in
  let sp50, sp95, sp99, server_samples =
    match server_lat with
    | Some h when h.Metrics.h_count > 0 ->
      ( Metrics.quantile h 0.5,
        Metrics.quantile h 0.95,
        Metrics.quantile h 0.99,
        h.Metrics.h_count )
    | _ -> (nan, nan, nan, 0)
  in
  let throughput = float_of_int ok /. wall_s in
  Printf.printf
    "serve load: %d sent at %.0f rps over %d conns — %d ok (%d degraded), \
     %d rejected, %d failed, %d reconnects, %d retries, %.1fs wall\n\
     latency ms: p50 %.2f  p95 %.2f  p99 %.2f   throughput %.1f req/s   \
     cache hit rate %.0f%%\n%!"
    sent !rps !conns ok degraded rejected failed reconnects retries wall_s
    p50 p95 p99 throughput
    (100.0 *. (if Float.is_nan cache_hit_rate then 0.0 else cache_hit_rate));
  if server_samples > 0 then
    Printf.printf
      "server-side latency ms (daemon histogram, %d samples): p50 %.2f  \
       p95 %.2f  p99 %.2f\n%!"
      server_samples sp50 sp95 sp99;
  (match !json_out with
  | Some path ->
    (* latency quantiles join the lubt-bench schema as ms entries, so
       [bench diff] gates serve latency like any other benchmark; the
       robustness counters ride along as count-valued entries (new
       entries are reported, never gated, by [bench diff]) *)
    let entry name ms =
      { Protocol.bench_name = name; ms_per_run = ms;
        solver = None; ebf_result = None }
    in
    let entries =
      [ entry "serve_latency_p50" p50;
        entry "serve_latency_p95" p95;
        entry "serve_latency_p99" p99;
        entry "serve_server_latency_p50" sp50;
        entry "serve_server_latency_p95" sp95;
        entry "serve_server_latency_p99" sp99;
        entry "serve_ms_per_request"
          (if throughput > 0.0 then 1e3 /. throughput else nan);
        entry "serve_reconnects_count" (float_of_int reconnects);
        entry "serve_retries_count" (float_of_int retries);
        entry "serve_degraded_count" (float_of_int degraded);
        entry "serve_cache_hit_rate" cache_hit_rate ]
    in
    let oc = open_out path in
    output_string oc (Protocol.bench_json ~jobs:!jobs ~size:"tiny" entries);
    close_out oc;
    Printf.printf "wrote %s (%d serve records)\n%!" path (List.length entries)
  | None -> ());
  if ok = 0 then exit 1

let known_commands =
  [ "table1"; "table2"; "table3"; "tradeoff"; "figure8"; "ablation";
    "extensions"; "sweep"; "timing"; "diff"; "serve" ]

let usage_and_exit () =
  Printf.eprintf
    "usage: main.exe [COMMAND...] [--tiny|--scaled|--full] [--json FILE]\n\
     [--seed N] [--jobs N] [--trace FILE] [--metrics]\n\
     \       main.exe diff OLD.json NEW.json [--threshold PCT]\n\
     \                    [--abs-floor-ms MS] [--slo-threshold PCT]\n\
     \                    [--slo-floor-ms MS] [--warn-only]\n\
     \       main.exe serve [--rps N] [--duration S] [--conns N] [--jobs N]\n\
     \                      [--socket PATH] [--json FILE]\n\
     \                      [--degrade-every N] [--chaos-seed N]\n\
     commands: %s (all of them when none given)\n"
    (String.concat "|" known_commands);
  exit 1

(* The regression gate: diff two bench-JSON files and exit non-zero on
   a regression past the threshold. Exit codes: 0 ok, 1 regression (or
   lost benchmark coverage), 2 unreadable/invalid input. --warn-only
   prints the same report but always exits 0 (CI soft gate). *)
let run_diff args =
  let threshold = ref 10.0 in
  let abs_floor_ms = ref 0.05 in
  let slo_threshold = ref 50.0 in
  let slo_floor_ms = ref 1.0 in
  let warn_only = ref false in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | [ "--slo-threshold" ] ->
      Printf.eprintf "--slo-threshold requires a percentage argument\n";
      usage_and_exit ()
    | "--slo-threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 ->
        slo_threshold := t;
        parse rest
      | _ ->
        Printf.eprintf "--slo-threshold: not a non-negative number: %S\n" v;
        usage_and_exit ())
    | [ "--slo-floor-ms" ] ->
      Printf.eprintf "--slo-floor-ms requires a milliseconds argument\n";
      usage_and_exit ()
    | "--slo-floor-ms" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0.0 ->
        slo_floor_ms := f;
        parse rest
      | _ ->
        Printf.eprintf "--slo-floor-ms: not a non-negative number: %S\n" v;
        usage_and_exit ())
    | [ "--threshold" ] ->
      Printf.eprintf "--threshold requires a percentage argument\n";
      usage_and_exit ()
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t >= 0.0 ->
        threshold := t;
        parse rest
      | _ ->
        Printf.eprintf "--threshold: not a non-negative number: %S\n" v;
        usage_and_exit ())
    | [ "--abs-floor-ms" ] ->
      Printf.eprintf "--abs-floor-ms requires a milliseconds argument\n";
      usage_and_exit ()
    | "--abs-floor-ms" :: v :: rest -> (
      match float_of_string_opt v with
      | Some f when f >= 0.0 ->
        abs_floor_ms := f;
        parse rest
      | _ ->
        Printf.eprintf "--abs-floor-ms: not a non-negative number: %S\n" v;
        usage_and_exit ())
    | "--warn-only" :: rest ->
      warn_only := true;
      parse rest
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
      Printf.eprintf "unknown flag %S\n" a;
      usage_and_exit ()
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse args;
  match List.rev !files with
  | [ old_path; new_path ] -> (
    match
      Bench_diff.compare_files ~threshold:(!threshold /. 100.0)
        ~abs_floor_ms:!abs_floor_ms
        ~slo_threshold:(!slo_threshold /. 100.0)
        ~slo_floor_ms:!slo_floor_ms old_path new_path
    with
    | Error e ->
      Printf.eprintf "bench diff: %s\n" e;
      exit 2
    | Ok report ->
      Bench_diff.print stdout report;
      if Bench_diff.has_regression report && not !warn_only then exit 1)
  | _ ->
    Printf.eprintf "diff needs exactly two bench-JSON files\n";
    usage_and_exit ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* [diff] has its own positional grammar (two files), so it routes
     before the flag parser below *)
  (match args with
  | "diff" :: rest ->
    run_diff rest;
    exit 0
  | "serve" :: rest ->
    (* [serve] has its own flags (--rps, --duration, ...), so it routes
       before the flag parser too *)
    run_serve rest;
    exit 0
  | _ -> ());
  let size = ref Benchmarks.Scaled in
  let json_out = ref None in
  let seed = ref 0 in
  let jobs = ref 1 in
  let trace_out = ref None in
  let commands = ref [] in
  let rec parse = function
    | [] -> ()
    | "--full" :: rest ->
      size := Benchmarks.Full;
      parse rest
    | "--scaled" :: rest ->
      size := Benchmarks.Scaled;
      parse rest
    | "--tiny" :: rest ->
      size := Benchmarks.Tiny;
      parse rest
    | [ "--json" ] ->
      Printf.eprintf "--json requires a FILE argument\n";
      usage_and_exit ()
    | "--json" :: file :: rest ->
      json_out := Some file;
      parse rest
    | [ "--seed" ] ->
      Printf.eprintf "--seed requires an integer argument\n";
      usage_and_exit ()
    | "--seed" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v ->
        seed := v;
        parse rest
      | None ->
        Printf.eprintf "--seed: not an integer: %S\n" n;
        usage_and_exit ())
    (* enable the metrics registry for the run: the A/B lever for
       measuring instrumentation overhead (EXPERIMENTS.md "Metrics
       overhead") — without it every site is one atomic load *)
    | "--metrics" :: rest ->
      Metrics.enable ();
      parse rest
    | [ "--trace" ] ->
      Printf.eprintf "--trace requires a FILE argument\n";
      usage_and_exit ()
    | "--trace" :: file :: rest ->
      trace_out := Some file;
      parse rest
    | [ "--jobs" ] ->
      Printf.eprintf "--jobs requires an integer argument\n";
      usage_and_exit ()
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v >= 1 ->
        jobs := v;
        parse rest
      | Some _ ->
        Printf.eprintf "--jobs: must be >= 1\n";
        usage_and_exit ()
      | None ->
        Printf.eprintf "--jobs: not an integer: %S\n" n;
        usage_and_exit ())
    | a :: _ when String.length a > 0 && a.[0] = '-' ->
      Printf.eprintf "unknown flag %S\n" a;
      usage_and_exit ()
    | cmd :: rest ->
      if not (List.mem cmd known_commands) then begin
        Printf.eprintf "unknown command %S\n" cmd;
        usage_and_exit ()
      end;
      commands := cmd :: !commands;
      parse rest
  in
  parse args;
  let size = !size in
  let jobs = !jobs in
  if !trace_out <> None then Trace.start ();
  let run = function
    | "table1" -> run_table1 ~jobs size
    | "table2" -> run_table2 ~jobs size
    | "table3" -> run_table3 ~jobs size
    | "tradeoff" | "figure8" -> run_tradeoff ~jobs size
    | "ablation" -> run_ablation size
    | "extensions" -> run_extensions size
    | "sweep" -> run_sweep ~jobs ~seed:!seed size
    | "timing" -> run_timing ~seed:!seed ~jobs !json_out
    | "diff" | "serve" ->
      Printf.eprintf "%s must be the first argument\n"
        (List.hd (List.rev !commands));
      exit 1
    | _ -> assert false
  in
  (match List.rev !commands with
  | [] ->
    (* full sweep: every table and figure, then the ablations and timings *)
    run_table1 ~jobs size;
    run_table2 ~jobs size;
    run_table3 ~jobs size;
    run_tradeoff ~jobs size;
    run_ablation size;
    run_extensions size;
    run_timing ~seed:!seed ~jobs !json_out
  | cmds -> List.iter run cmds);
  match !trace_out with
  | Some path ->
    let events = Trace.events () in
    let dropped = Trace.dropped () in
    Trace.stop ();
    Chrome_trace.write ~dropped path events;
    Printf.eprintf "wrote trace to %s (%d events, %d dropped)\n%!" path
      (List.length events) dropped
  | None -> ()
