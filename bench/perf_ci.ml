(* Deterministic perf-CI scorer: runs the extended-TPC-H suite per
   engine, scores each (query, engine) pair by cache-weighted
   instruction counts, writes BENCH_tpch.json and prints a delta table
   against a committed baseline.

   Two scoring backends:

     sim         (default) the repo's own trace-driven cache model —
                 in-process, bit-deterministic, available everywhere
     cachegrind  each pair runs as a small single-query child process
                 under `valgrind --tool=cachegrind` with pinned cache
                 geometry and ASLR off (nim-lang/ci_bench recipe); the
                 child's setup cost (data generation + codegen) is
                 measured separately and subtracted, so the score
                 reflects execution, like the sim backend

   Usage:
     bench/perf_ci.exe                           score the suite, print records
     bench/perf_ci.exe --out BENCH_tpch.json     also write the json
     bench/perf_ci.exe --baseline BENCH_tpch.json   print deltas vs baseline
     bench/perf_ci.exe --backend cachegrind --query Q6 --engine compiled-c
     bench/perf_ci.exe --gate --baseline BENCH_tpch.json   exit 1 on regression *)

module Suite = Lq_bench.Suite
module Sim = Lq_bench.Sim
module Cachegrind = Lq_bench.Cachegrind
module Score = Lq_bench.Score
module Gate = Lq_bench.Gate
module Args = Lq_bench.Args
module Engine_intf = Lq_catalog.Engine_intf

let backend = ref "sim"
let sf = ref Suite.default_sf
let seed = ref Suite.default_seed
let out = ref None
let baseline = ref None
let gate = ref false
let threshold = ref Gate.default_threshold_pct
let sel_queries = ref []
let sel_engines = ref []
let quiet = ref false

(* child-mode state *)
let child = ref false
let setup_only = ref false
let child_engine = ref ""
let child_query = ref ""

let specs =
  [
    Args.Value
      ( "--backend", "sim|cachegrind",
        (fun v ->
          if v <> "sim" && v <> "cachegrind" then failwith "expected sim or cachegrind";
          backend := v),
        "scoring backend (default sim)" );
    Args.Value ("--sf", "F", (fun v -> sf := Args.float_value v), "TPC-H scale factor");
    Args.Value ("--seed", "N", (fun v -> seed := Args.int_value v), "data generator seed");
    Args.Value ("--out", "FILE", (fun v -> out := Some v), "write BENCH json here");
    Args.Value ("--baseline", "FILE", (fun v -> baseline := Some v), "compare against this BENCH json");
    Args.Value
      ( "--threshold", "PCT",
        (fun v -> threshold := Args.float_value v),
        "regression threshold percent (default 5)" );
    Args.Flag ("--gate", (fun () -> gate := true), "exit 1 on regression vs --baseline");
    Args.Value
      ( "--query", "Q",
        (fun v -> sel_queries := !sel_queries @ String.split_on_char ',' v),
        "restrict to these queries (repeatable, comma-separated)" );
    Args.Value
      ( "--engine", "E",
        (fun v -> sel_engines := !sel_engines @ String.split_on_char ',' v),
        "restrict to these engines (repeatable, comma-separated)" );
    Args.Flag ("--quiet", (fun () -> quiet := true), "suppress per-pair progress");
    (* internal: the single-query process run under cachegrind *)
    Args.Flag ("--child", (fun () -> child := true), "(internal) single-query child mode");
    Args.Flag
      ( "--setup-only",
        (fun () -> setup_only := true),
        "(internal) child runs setup but not execution" );
    Args.Value ("--child-engine", "E", (fun v -> child_engine := v), "(internal)");
    Args.Value ("--child-query", "Q", (fun v -> child_query := v), "(internal)");
  ]

let progress fmt =
  Printf.ksprintf (fun s -> if not !quiet then Printf.printf "%s\n%!" s) fmt

let chosen_queries () =
  match !sel_queries with
  | [] -> Suite.queries
  | names ->
    List.map
      (fun n ->
        match Suite.find_query n with
        | Some q -> (n, q)
        | None ->
          Printf.eprintf "unknown query %S; available: %s\n" n
            (String.concat ", " (List.map fst Suite.queries));
          exit 2)
      names

let chosen_engines () =
  match !sel_engines with
  | [] -> Suite.scored_engines
  | names ->
    List.map
      (fun n ->
        match Suite.find_engine n with
        | Some e -> e
        | None ->
          Printf.eprintf "unknown engine %S; available: %s\n" n
            (String.concat ", "
               (List.map (fun (e : Engine_intf.t) -> e.name) Suite.scored_engines));
          exit 2)
      names

(* ------------------------------------------------------------------ *)
(* child mode: everything cachegrind should (or should not) count *)

let run_child () =
  let engine =
    match Suite.find_engine !child_engine with
    | Some e -> e
    | None ->
      Printf.eprintf "child: unknown engine %S\n" !child_engine;
      exit 2
  in
  let q =
    match Suite.find_query !child_query with
    | Some q -> (!child_query, q)
    | None ->
      Printf.eprintf "child: unknown query %S\n" !child_query;
      exit 2
  in
  let prov = Lq_core.Provider.create ~use_cache:false (Suite.load ~seed:!seed ~sf:!sf ()) in
  match Lq_core.Provider.prepare_only prov ~engine (snd q) with
  | exception Engine_intf.Unsupported _ -> exit 3 (* typed refusal, parent skips *)
  | prepared, _ ->
    if !setup_only then exit 0;
    let consts = Lq_expr.Shape.consts (Lq_core.Provider.optimized prov (snd q)) in
    let params = Suite.query_params @ Lq_expr.Shape.const_params consts in
    let rows = prepared.Engine_intf.execute ~params () in
    Printf.printf "rows=%d\n" (List.length rows);
    exit 0

(* ------------------------------------------------------------------ *)
(* cachegrind backend: one child process per measured phase *)

let self_exe = Sys.executable_name

let run_child_under_cachegrind ~setup ~engine ~qname ~out_file =
  let args =
    [
      "--child"; "--child-engine"; engine; "--child-query"; qname;
      "--sf"; string_of_float !sf; "--seed"; string_of_int !seed;
    ]
    @ (if setup then [ "--setup-only" ] else [])
  in
  let argv = Cachegrind.command ~exe:self_exe ~args ~out_file in
  let cmd = String.concat " " (List.map Filename.quote argv) ^ " >/dev/null 2>&1" in
  Sys.command cmd

let sub_counts (a : Score.counts) (b : Score.counts) =
  let m x y = max 0 (x - y) in
  {
    Score.ir = m a.Score.ir b.Score.ir;
    i1mr = m a.Score.i1mr b.Score.i1mr;
    ilmr = m a.Score.ilmr b.Score.ilmr;
    dr = m a.Score.dr b.Score.dr;
    d1mr = m a.Score.d1mr b.Score.d1mr;
    dlmr = m a.Score.dlmr b.Score.dlmr;
    dw = m a.Score.dw b.Score.dw;
    d1mw = m a.Score.d1mw b.Score.d1mw;
    dlmw = m a.Score.dlmw b.Score.dlmw;
  }

let measure_cachegrind ~rows ~engine (qname, _q) =
  let ename = engine.Engine_intf.name in
  let tmp phase = Filename.temp_file ("lq_cg_" ^ phase) ".out" in
  let full_out = tmp "full" and setup_out = tmp "setup" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove full_out with Sys_error _ -> ());
      try Sys.remove setup_out with Sys_error _ -> ())
    (fun () ->
      match run_child_under_cachegrind ~setup:false ~engine:ename ~qname ~out_file:full_out with
      | 3 -> None (* engine refused the query *)
      | 0 -> (
        let rc = run_child_under_cachegrind ~setup:true ~engine:ename ~qname ~out_file:setup_out in
        if rc <> 0 then failwith (Printf.sprintf "%s/%s: setup child exited %d" qname ename rc);
        match (Cachegrind.parse_file full_out, Cachegrind.parse_file setup_out) with
        | Ok full, Ok setup ->
          let counts =
            sub_counts (Score.counts_of_events full) (Score.counts_of_events setup)
          in
          Some (Score.make_record ~query:qname ~engine:ename ~rows:(rows ()) counts)
        | Error msg, _ | _, Error msg ->
          failwith (Printf.sprintf "%s/%s: cachegrind output: %s" qname ename msg))
      | rc -> failwith (Printf.sprintf "%s/%s: child exited %d" qname ename rc))

let run_cachegrind_suite () =
  if not (Cachegrind.available ()) then begin
    Printf.eprintf
      "perf_ci: valgrind not found on PATH; the cachegrind backend needs it\n\
       (the sim backend works everywhere: --backend sim)\n";
    exit 4
  end;
  (* result cardinality comes from one cheap in-process execution per
     pair (the child's stdout is swallowed by the valgrind wrapper) *)
  let prov = lazy (Lq_core.Provider.create (Suite.load ~seed:!seed ~sf:!sf ())) in
  let records =
    List.concat_map
      (fun (qname, q) ->
        List.filter_map
          (fun (engine : Engine_intf.t) ->
            let rows () =
              List.length
                (Lq_core.Provider.run (Lazy.force prov) ~engine
                   ~params:Suite.query_params q)
            in
            match measure_cachegrind ~rows ~engine (qname, q) with
            | Some r ->
              progress "%-6s %-26s score=%d" qname engine.name r.Score.record_score;
              Some r
            | None ->
              progress "%-6s %-26s unsupported" qname engine.name;
              None)
          (chosen_engines ()))
      (chosen_queries ())
  in
  {
    Score.version = 1;
    suite = "tpch";
    backend = "cachegrind";
    sf = !sf;
    seed = !seed;
    tool = Option.value ~default:"valgrind" (Cachegrind.version ());
    geometry_id = Cachegrind.geometry_id;
    records;
  }

(* ------------------------------------------------------------------ *)

let run_sim_suite () =
  let records =
    Sim.run_suite ~seed:!seed ~sf:!sf ~queries:(chosen_queries ())
      ~engines:(chosen_engines ())
      ~progress:(fun line -> progress "%s" line)
      ()
  in
  Sim.file_of_records ~seed:!seed ~sf:!sf records

let () =
  Args.parse ~prog:"bench/perf_ci.exe" specs (List.tl (Array.to_list Sys.argv));
  if !child then run_child ();
  let fresh = if !backend = "sim" then run_sim_suite () else run_cachegrind_suite () in
  progress "%d pair(s) scored (backend=%s sf=%g seed=%d)"
    (List.length fresh.Score.records) fresh.Score.backend fresh.Score.sf
    fresh.Score.seed;
  (match !out with
  | Some path ->
    Score.save path fresh;
    progress "wrote %s" path
  | None -> ());
  match !baseline with
  | None -> ()
  | Some path -> (
    match Score.load path with
    | Error msg ->
      Printf.eprintf "perf_ci: cannot load baseline %s: %s\n" path msg;
      exit 2
    | Ok base -> (
      match Gate.check_config ~baseline:base ~fresh with
      | Error msg ->
        Printf.eprintf "perf_ci: %s\n" msg;
        exit 2
      | Ok () ->
        let report =
          Gate.compare_records ~threshold_pct:!threshold ~baseline:base.Score.records
            ~fresh:fresh.Score.records ()
        in
        print_string (Gate.render report);
        if !gate && not (Gate.ok report) then exit 1))
