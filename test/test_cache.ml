(* The warm-start cache, locked in by a differential equivalence layer.

   The core suite applies random ECO edit chains (eco_gen.ml) to random
   EBF instances (lp_gen.ml) and asserts that a warm-from-cache re-solve
   and a cold-from-scratch re-solve of the same edited instance reach
   identical certified objectives — the cache may only change the pivot
   path, never the answer. Around it: fingerprint determinism, snapshot
   disk round-trips, LRU eviction, corrupt/mis-keyed snapshot rejection,
   the typed dimension-mismatch regression, and a concurrent-executor
   cache race. *)

module Cache = Lubt_lp.Basis_cache
module Simplex = Lubt_lp.Simplex
module Problem = Lubt_lp.Problem
module Solver = Lubt_lp.Solver
module Status = Lubt_lp.Status
module Certify = Lubt_lp.Certify
module Ebf = Lubt_core.Ebf
module Instance = Lubt_core.Instance
module Prng = Lubt_util.Prng

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let temp_counter = ref 0

let fresh_dir () =
  incr temp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lubt-cache-test-%d-%d" (Unix.getpid ()) !temp_counter)
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error _ -> ()

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let certified_cached cache =
  { Ebf.default_options with Ebf.check = Certify.Full; cache = Some cache }

let certified_cold = { Ebf.default_options with Ebf.check = Certify.Full }

let check_close what a b =
  let tol = 1e-6 *. (1.0 +. Float.abs a) in
  if Float.abs (a -. b) > tol then
    Alcotest.failf "%s: %.12g vs %.12g (tol %.3g)" what a b tol

let is_hit = function
  | Ebf.Cache_hit_exact | Ebf.Cache_hit_parent -> true
  | Ebf.Cache_off | Ebf.Cache_miss | Ebf.Cache_rejected _ -> false

(* a small fixed LP for the solver-level tests: min x + 2y
   s.t. x + y >= 2, x - y <= 1, 0 <= x,y <= 10 *)
let small_problem () =
  let p = Problem.create () in
  let x = Problem.add_var ~lo:0.0 ~up:10.0 ~obj:1.0 p in
  let y = Problem.add_var ~lo:0.0 ~up:10.0 ~obj:2.0 p in
  ignore (Problem.add_row p ~lo:2.0 ~up:infinity [ (x, 1.0); (y, 1.0) ]);
  ignore (Problem.add_row p ~lo:neg_infinity ~up:1.0 [ (x, 1.0); (y, -1.0) ]);
  p

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let test_fingerprint () =
  let digest feed =
    let h = Cache.Fingerprint.create () in
    feed h;
    Cache.Fingerprint.digest h
  in
  let a =
    digest (fun h ->
        Cache.Fingerprint.add_int h 42;
        Cache.Fingerprint.add_float h 1.5;
        Cache.Fingerprint.add_string h "ebf")
  in
  let a' =
    digest (fun h ->
        Cache.Fingerprint.add_int h 42;
        Cache.Fingerprint.add_float h 1.5;
        Cache.Fingerprint.add_string h "ebf")
  in
  Alcotest.(check string) "deterministic" a a';
  let b =
    digest (fun h ->
        Cache.Fingerprint.add_int h 43;
        Cache.Fingerprint.add_float h 1.5;
        Cache.Fingerprint.add_string h "ebf")
  in
  Alcotest.(check bool) "value-sensitive" true (a <> b);
  (* length prefixing: ["ab"; "c"] and ["a"; "bc"] must differ *)
  let c =
    digest (fun h ->
        Cache.Fingerprint.add_string h "ab";
        Cache.Fingerprint.add_string h "c")
  in
  let d =
    digest (fun h ->
        Cache.Fingerprint.add_string h "a";
        Cache.Fingerprint.add_string h "bc")
  in
  Alcotest.(check bool) "no concatenation ambiguity" true (c <> d);
  (* -0.0 and 0.0 are different bit patterns, hence different keys *)
  let z = digest (fun h -> Cache.Fingerprint.add_float h 0.0) in
  let nz = digest (fun h -> Cache.Fingerprint.add_float h (-0.0)) in
  Alcotest.(check bool) "signed zero distinguished" true (z <> nz);
  Alcotest.(check int) "16 hex chars" 16 (String.length a)

(* ------------------------------------------------------------------ *)
(* Differential equivalence: warm-from-cache == cold-from-scratch      *)
(* ------------------------------------------------------------------ *)

(* One chain: solve the parent (populating the cache), edit, then solve
   the edited instance twice — warm and cold — and compare. Returns
   None when the parent was not optimal (nothing cached to compare
   against), Some hit otherwise. *)
let run_chain ~topology_preserving seed =
  let rng = Prng.create seed in
  let inst, tree = Lp_gen.random_ebf rng in
  let cache = Cache.create () in
  let warm_opts = certified_cached cache in
  let parent = Ebf.solve ~options:warm_opts inst tree in
  if parent.Ebf.status <> Status.Optimal then None
  else begin
    let len = 1 + Prng.int rng 3 in
    let _ops, edited =
      Eco_gen.random_chain ~topology_preserving ~len rng inst
    in
    let tree' =
      if Instance.num_sinks edited = Instance.num_sinks inst then tree
      else
        Lubt_topo.Topogen.random_binary rng
          ~num_sinks:(Instance.num_sinks edited)
          ~source_edge:(inst.Instance.source <> None)
    in
    let warm = Ebf.solve ~options:warm_opts edited tree' in
    let cold = Ebf.solve ~options:certified_cold edited tree' in
    Alcotest.(check string)
      (Printf.sprintf "chain %d: statuses agree" seed)
      (Status.to_string cold.Ebf.status)
      (Status.to_string warm.Ebf.status);
    if warm.Ebf.status = Status.Optimal then begin
      check_close
        (Printf.sprintf "chain %d: certified objectives" seed)
        cold.Ebf.objective warm.Ebf.objective;
      (* both answers really were certified, not just claimed *)
      let certified r =
        match r.Ebf.certificate with
        | Some c -> c.Certify.ok
        | None -> false
      in
      Alcotest.(check bool)
        (Printf.sprintf "chain %d: warm certified" seed)
        true (certified warm);
      Alcotest.(check bool)
        (Printf.sprintf "chain %d: cold certified" seed)
        true (certified cold)
    end;
    Some (is_hit warm.Ebf.cache_outcome)
  end

let test_differential_preserving () =
  (* >= 50 green chains where the edit preserves the topology: every
     one must be served from the cache (the parent has the same
     structure fingerprint), and every one must match the cold solve *)
  let chains = ref 0 and hits = ref 0 and seed = ref 0 in
  while !chains < 50 do
    incr seed;
    match run_chain ~topology_preserving:true !seed with
    | None -> ()
    | Some hit ->
      incr chains;
      if hit then incr hits
  done;
  Alcotest.(check int) "every preserving chain warm-started" !chains !hits

let test_differential_mixed () =
  (* chains that may add/remove sinks: the cache must stay silent or
     correct — equivalence holds whether or not anything was served *)
  let chains = ref 0 and seed = ref 1000 in
  while !chains < 12 do
    incr seed;
    match run_chain ~topology_preserving:false !seed with
    | None -> ()
    | Some _ -> incr chains
  done

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip and the disk tier                               *)
(* ------------------------------------------------------------------ *)

let sample_entry () =
  {
    Cache.e_structure = "00000000deadbeef";
    e_key = "cafebabe00000000";
    e_basis =
      {
        Simplex.wb_nvars = 3;
        wb_nrows = 2;
        wb_basic = [| 3; 4 |];
        wb_nonbasic = "luf" ^ "bb";
      };
    e_delay = [| 0; 2 |];
    e_pairs = [| (0, 1); (1, 2) |];
    e_objective = 42.5;
  }

let check_entry_equal (a : Cache.entry) (b : Cache.entry) =
  Alcotest.(check string) "structure" a.Cache.e_structure b.Cache.e_structure;
  Alcotest.(check string) "key" a.Cache.e_key b.Cache.e_key;
  Alcotest.(check int) "nvars" a.Cache.e_basis.Simplex.wb_nvars
    b.Cache.e_basis.Simplex.wb_nvars;
  Alcotest.(check int) "nrows" a.Cache.e_basis.Simplex.wb_nrows
    b.Cache.e_basis.Simplex.wb_nrows;
  Alcotest.(check (array int)) "basic" a.Cache.e_basis.Simplex.wb_basic
    b.Cache.e_basis.Simplex.wb_basic;
  Alcotest.(check string) "nonbasic" a.Cache.e_basis.Simplex.wb_nonbasic
    b.Cache.e_basis.Simplex.wb_nonbasic;
  Alcotest.(check (array int)) "delay" a.Cache.e_delay b.Cache.e_delay;
  Alcotest.(check (list (pair int int))) "pairs"
    (Array.to_list a.Cache.e_pairs)
    (Array.to_list b.Cache.e_pairs);
  Alcotest.(check (float 0.0)) "objective" a.Cache.e_objective
    b.Cache.e_objective

let test_disk_roundtrip () =
  with_dir (fun dir ->
      let e = sample_entry () in
      let c1 = Cache.create ~dir () in
      Cache.store c1 e;
      (* a FRESH cache over the same directory: memory tier is empty, so
         the hit below can only come from the parsed snapshot file *)
      let c2 = Cache.create ~dir () in
      (match
         Cache.find c2 ~structure:e.Cache.e_structure ~key:e.Cache.e_key
       with
      | Cache.Exact got -> check_entry_equal e got
      | Cache.Parent _ -> Alcotest.fail "expected Exact, got Parent"
      | Cache.Miss -> Alcotest.fail "disk round-trip lost the snapshot");
      (* the parent path also survives the restart: a different key with
         the same structure resolves through the disk index file *)
      let c3 = Cache.create ~dir () in
      (match
         Cache.find c3 ~structure:e.Cache.e_structure
           ~key:"1111111111111111"
       with
      | Cache.Parent got -> check_entry_equal e got
      | Cache.Exact _ -> Alcotest.fail "expected Parent, got Exact"
      | Cache.Miss -> Alcotest.fail "disk parent lookup failed");
      let s = Cache.stats c3 in
      Alcotest.(check int) "parent lookup counted as hit" 1 s.Cache.hits)

let test_solver_disk_restart () =
  (* end to end through Ebf.solve over a disk-backed cache (the path
     behind `lubt solve --cache-dir`): a second process, modelled by a
     fresh cache over the same dir, warm-starts from the first's basis *)
  let inst, tree = Lp_gen.random_ebf (Prng.create 7) in
  with_dir (fun dir ->
      let c1 = Cache.create ~dir () in
      let r1 = Ebf.solve ~options:(certified_cached c1) inst tree in
      Alcotest.(check string) "first solve optimal" "optimal"
        (Status.to_string r1.Ebf.status);
      Alcotest.(check int) "stored" 1 (Cache.stats c1).Cache.stores;
      let c2 = Cache.create ~dir () in
      let r2 = Ebf.solve ~options:(certified_cached c2) inst tree in
      Alcotest.(check string) "restart solve optimal" "optimal"
        (Status.to_string r2.Ebf.status);
      Alcotest.(check bool) "restart certified" true
        (match r2.Ebf.certificate with Some c -> c.Certify.ok | None -> false);
      check_close "objectives across restart" r1.Ebf.objective
        r2.Ebf.objective;
      Alcotest.(check bool) "restart warm-started from disk" true
        (is_hit r2.Ebf.cache_outcome);
      let st = Cache.stats c2 in
      Alcotest.(check int) "one hit" 1 st.Cache.hits;
      Alcotest.(check int) "no rejects" 0 st.Cache.rejects)

let test_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  let entry key =
    { (sample_entry ()) with Cache.e_key = key; e_structure = key }
  in
  Cache.store c (entry "k1");
  Cache.store c (entry "k2");
  (* touch k1 so k2 becomes the LRU victim of the next insert *)
  (match Cache.find c ~structure:"k1" ~key:"k1" with
  | Cache.Exact _ -> ()
  | _ -> Alcotest.fail "k1 should be resident");
  Cache.store c (entry "k3");
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  (match Cache.find c ~structure:"k2" ~key:"k2" with
  | Cache.Miss -> ()
  | _ -> Alcotest.fail "k2 should have been evicted (LRU)");
  (match Cache.find c ~structure:"k1" ~key:"k1" with
  | Cache.Exact _ -> ()
  | _ -> Alcotest.fail "k1 (recently used) should have survived");
  (match Cache.find c ~structure:"k3" ~key:"k3" with
  | Cache.Exact _ -> ()
  | _ -> Alcotest.fail "k3 (just inserted) should be resident")

let test_corrupt_snapshot_rejected () =
  with_dir (fun dir ->
      let e = sample_entry () in
      let c1 = Cache.create ~dir () in
      Cache.store c1 e;
      let file = Filename.concat dir ("b" ^ e.Cache.e_key ^ ".dat") in
      Alcotest.(check bool) "snapshot file exists" true (Sys.file_exists file);
      (* flip one byte in the middle of the payload *)
      let content = In_channel.with_open_bin file In_channel.input_all in
      let flipped = Bytes.of_string content in
      let mid = Bytes.length flipped / 2 in
      Bytes.set flipped mid
        (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x01));
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_bytes oc flipped);
      let c2 = Cache.create ~dir () in
      (match
         Cache.find c2 ~structure:e.Cache.e_structure ~key:e.Cache.e_key
       with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "bit-flipped snapshot must be a miss");
      Alcotest.(check bool) "reject counted" true
        ((Cache.stats c2).Cache.rejects >= 1);
      (* truncation is likewise rejected *)
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc
            (String.sub content 0 (String.length content / 2)));
      let c3 = Cache.create ~dir () in
      (match
         Cache.find c3 ~structure:e.Cache.e_structure ~key:e.Cache.e_key
       with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "truncated snapshot must be a miss"))

let test_miskeyed_snapshot_rejected () =
  (* a snapshot parked under the wrong filename (the fingerprint
     matches the filename but not the recorded key) must be rejected
     with a counted reject, never served *)
  with_dir (fun dir ->
      let e = sample_entry () in
      let c1 = Cache.create ~dir () in
      Cache.store c1 e;
      let src = Filename.concat dir ("b" ^ e.Cache.e_key ^ ".dat") in
      let other_key = "2222222222222222" in
      let dst = Filename.concat dir ("b" ^ other_key ^ ".dat") in
      let content = In_channel.with_open_bin src In_channel.input_all in
      Out_channel.with_open_bin dst (fun oc ->
          Out_channel.output_string oc content);
      let c2 = Cache.create ~dir () in
      (match
         Cache.find c2 ~structure:"3333333333333333" ~key:other_key
       with
      | Cache.Miss -> ()
      | _ -> Alcotest.fail "mis-keyed snapshot must be a miss");
      Alcotest.(check bool) "mis-key reject counted" true
        ((Cache.stats c2).Cache.rejects >= 1))

(* ------------------------------------------------------------------ *)
(* Satellite regression: dimension mismatch is typed, never silent     *)
(* ------------------------------------------------------------------ *)

let test_dimension_mismatch_typed () =
  (* a snapshot whose dimensions disagree with the engine must come
     back as a typed basis_mismatch carrying both shapes — and must
     leave the engine able to solve correctly from its cold basis *)
  let p = small_problem () in
  let eng = Simplex.of_problem p in
  let bogus =
    {
      Simplex.wb_nvars = 7;
      wb_nrows = 5;
      wb_basic = [| 7; 8; 9; 10; 11 |];
      wb_nonbasic = String.make 12 'l';
    }
  in
  (match Simplex.install_warm_basis eng bogus with
  | Ok () -> Alcotest.fail "dimension mismatch was mapped silently"
  | Error bm ->
    Alcotest.(check int) "expected vars" 2 bm.Simplex.bm_expected_vars;
    Alcotest.(check int) "expected rows" 2 bm.Simplex.bm_expected_rows;
    Alcotest.(check int) "got vars" 7 bm.Simplex.bm_got_vars;
    Alcotest.(check int) "got rows" 5 bm.Simplex.bm_got_rows;
    Alcotest.(check bool) "reason is non-empty" true
      (String.length bm.Simplex.bm_reason > 0);
    (* the pretty-printer renders without raising *)
    let rendered = Format.asprintf "%a" Simplex.pp_basis_mismatch bm in
    Alcotest.(check bool) "rendered mismatch mentions shapes" true
      (String.length rendered > 0));
  (* the refused install left the engine on a valid basis *)
  let status = Simplex.solve eng in
  Alcotest.(check string) "engine still solves" "optimal"
    (Status.to_string status);
  let cold = Solver.solve (small_problem ()) in
  check_close "same optimum as an untouched engine"
    cold.Status.objective (Simplex.solution eng).Status.objective

let test_layout_change_rejected_not_mapped () =
  (* Ebf-level regression: an edit that changes the delay-row layout
     (a sink's window relaxed to [0, inf) drops its row) makes the
     cached parent snapshot structurally incompatible. The solve must
     report Cache_rejected — with a reason — and still reach the cold
     objective, never install the stale basis silently. *)
  let rng = Prng.create 7 in
  let inst, tree = Lp_gen.random_ebf rng in
  let cache = Cache.create () in
  let opts = certified_cached cache in
  let parent = Ebf.solve ~options:opts inst tree in
  Alcotest.(check string) "parent optimal" "optimal"
    (Status.to_string parent.Ebf.status);
  let edited =
    match
      Instance.Edit.apply inst
        (Instance.Edit.Set_bounds { sink = 0; lower = 0.0; upper = infinity })
    with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let warm = Ebf.solve ~options:opts edited tree in
  let cold = Ebf.solve ~options:certified_cold edited tree in
  (match warm.Ebf.cache_outcome with
  | Ebf.Cache_rejected reason ->
    Alcotest.(check bool) "reject reason non-empty" true
      (String.length reason > 0)
  | other ->
    Alcotest.failf "expected Cache_rejected, got %s"
      (Ebf.cache_outcome_name other));
  Alcotest.(check string) "still solves" (Status.to_string cold.Ebf.status)
    (Status.to_string warm.Ebf.status);
  if cold.Ebf.status = Status.Optimal then
    check_close "cold objective reached" cold.Ebf.objective warm.Ebf.objective;
  Alcotest.(check bool) "reject counted in stats" true
    ((Cache.stats cache).Cache.rejects >= 1)

(* ------------------------------------------------------------------ *)
(* Concurrency: one cache shared by racing solver domains              *)
(* ------------------------------------------------------------------ *)

let test_concurrent_cache_race () =
  let rng = Prng.create 11 in
  let inst, tree = Lp_gen.random_ebf rng in
  let cache = Cache.create () in
  let opts = certified_cached cache in
  let reference = Ebf.solve ~options:certified_cold inst tree in
  Alcotest.(check string) "reference optimal" "optimal"
    (Status.to_string reference.Ebf.status);
  let domains = 4 and per_domain = 5 in
  let worker () =
    List.init per_domain (fun _ ->
        let r = Ebf.solve ~options:opts inst tree in
        (Status.to_string r.Ebf.status, r.Ebf.objective))
  in
  let spawned = List.init domains (fun _ -> Domain.spawn worker) in
  let results = List.concat_map Domain.join spawned in
  List.iter
    (fun (status, objective) ->
      Alcotest.(check string) "racing solve optimal" "optimal" status;
      check_close "racing objective" reference.Ebf.objective objective)
    results;
  let s = Cache.stats cache in
  Alcotest.(check int) "every lookup accounted"
    (domains * per_domain)
    (s.Cache.hits + s.Cache.misses);
  (* after a domain's first solve stores the basis, its remaining
     solves must hit (and usually the other domains' do too) *)
  Alcotest.(check bool)
    (Printf.sprintf "hits dominate (%d hits)" s.Cache.hits)
    true
    (s.Cache.hits >= domains * (per_domain - 1));
  Alcotest.(check int) "no rejects under the race" 0 s.Cache.rejects

(* ------------------------------------------------------------------ *)
(* Instance.Edit unit behaviour                                        *)
(* ------------------------------------------------------------------ *)

let test_edit_api () =
  let inst =
    Instance.uniform_bounds
      ~sinks:
        [|
          Lubt_geom.Point.make 0.0 10.0;
          Lubt_geom.Point.make 10.0 0.0;
        |]
      ~lower:1.0 ~upper:50.0 ()
  in
  let ok = function
    | Ok v -> v
    | Error e -> Alcotest.fail e
  in
  (* set_bounds rewrites exactly one window *)
  let i2 =
    ok
      (Instance.Edit.apply inst
         (Instance.Edit.Set_bounds { sink = 1; lower = 2.0; upper = 30.0 }))
  in
  Alcotest.(check (float 0.0)) "sink 1 lower" 2.0 i2.Instance.lower.(1);
  Alcotest.(check (float 0.0)) "sink 0 untouched" 1.0 i2.Instance.lower.(0);
  (* move_sink translates *)
  let i3 =
    ok
      (Instance.Edit.apply inst
         (Instance.Edit.Move_sink { sink = 0; dx = 3.0; dy = -4.0 }))
  in
  Alcotest.(check (float 1e-12)) "moved x" 3.0
    i3.Instance.sinks.(0).Lubt_geom.Point.x;
  (* add_sink appends at the end *)
  let i4 =
    ok
      (Instance.Edit.apply inst
         (Instance.Edit.Add_sink
            { point = Lubt_geom.Point.make 5.0 5.0; lower = 0.0; upper = 99.0 }))
  in
  Alcotest.(check int) "sink added" 3 (Instance.num_sinks i4);
  (* remove_sink deletes by index *)
  let i5 =
    ok (Instance.Edit.apply i4 (Instance.Edit.Remove_sink { sink = 0 }))
  in
  Alcotest.(check int) "sink removed" 2 (Instance.num_sinks i5);
  (* error cases are Errors, not exceptions *)
  let is_err = function Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "out-of-range sink" true
    (is_err
       (Instance.Edit.apply inst
          (Instance.Edit.Set_bounds { sink = 9; lower = 0.0; upper = 1.0 })));
  Alcotest.(check bool) "negative sink" true
    (is_err
       (Instance.Edit.apply inst
          (Instance.Edit.Move_sink { sink = -1; dx = 0.0; dy = 0.0 })));
  Alcotest.(check bool) "inverted bounds" true
    (is_err
       (Instance.Edit.apply inst
          (Instance.Edit.Set_bounds { sink = 0; lower = 5.0; upper = 1.0 })));
  let one_sink =
    ok (Instance.Edit.apply inst (Instance.Edit.Remove_sink { sink = 0 }))
  in
  Alcotest.(check bool) "removing the last sink" true
    (is_err
       (Instance.Edit.apply one_sink (Instance.Edit.Remove_sink { sink = 0 })));
  (* apply_all stops at the first failure *)
  Alcotest.(check bool) "apply_all propagates failure" true
    (is_err
       (Instance.Edit.apply_all inst
          [
            Instance.Edit.Move_sink { sink = 0; dx = 1.0; dy = 1.0 };
            Instance.Edit.Remove_sink { sink = 77 };
          ]));
  (* topology preservation classification *)
  Alcotest.(check bool) "set_bounds preserves" true
    (Instance.Edit.preserves_topology
       (Instance.Edit.Set_bounds { sink = 0; lower = 0.0; upper = 1.0 }));
  Alcotest.(check bool) "move preserves" true
    (Instance.Edit.preserves_topology
       (Instance.Edit.Move_sink { sink = 0; dx = 0.0; dy = 0.0 }));
  Alcotest.(check bool) "add does not preserve" false
    (Instance.Edit.preserves_topology
       (Instance.Edit.Add_sink
          { point = Lubt_geom.Point.make 0.0 0.0; lower = 0.0; upper = 1.0 }));
  Alcotest.(check bool) "remove does not preserve" false
    (Instance.Edit.preserves_topology (Instance.Edit.Remove_sink { sink = 0 }))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cache"
    [
      ( "fingerprint",
        [ Alcotest.test_case "determinism and sensitivity" `Quick
            test_fingerprint ] );
      ( "differential",
        [
          Alcotest.test_case "50 topology-preserving ECO chains" `Quick
            test_differential_preserving;
          Alcotest.test_case "mixed chains (add/remove sinks)" `Quick
            test_differential_mixed;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "disk round-trip" `Quick test_disk_roundtrip;
          Alcotest.test_case "solver warm start across restart" `Quick
            test_solver_disk_restart;
          Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
          Alcotest.test_case "corrupt snapshot rejected" `Quick
            test_corrupt_snapshot_rejected;
          Alcotest.test_case "mis-keyed snapshot rejected" `Quick
            test_miskeyed_snapshot_rejected;
        ] );
      ( "mismatch",
        [
          Alcotest.test_case "dimension mismatch is typed" `Quick
            test_dimension_mismatch_typed;
          Alcotest.test_case "layout change rejected, not mapped" `Quick
            test_layout_change_rejected_not_mapped;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "racing domains share one cache" `Quick
            test_concurrent_cache_race;
        ] );
      ( "edits",
        [ Alcotest.test_case "Instance.Edit behaviour" `Quick test_edit_api ]
      );
    ]
