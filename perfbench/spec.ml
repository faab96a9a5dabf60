(* The workloads and metrics BENCHMARK.json lists, in its order;
   test_spec.ml checks that the file matches. *)

let workloads = [ "warm-tpch"; "cold-shapes"; "service-mix" ]

(* Every workload reports each of these; tail_ms is per-layer because on
   the service mix it rests on a handful of refresh-hit requests and
   spreads too widely run to run to carry a bound. *)
let end_to_end = [ ("setup_s", "s"); ("latency_ms", "ms"); ("alloc_kw", "kw") ]

let per_layer =
  let engines = [ "jit"; "native"; "csharp"; "hybrid"; "vector"; "parallel"; "volcano"; "linq" ] in
  let codegen = [ "csharp"; "native"; "hybrid"; "vector" ] in
  [ ("tail_ms", "ms") ]
  @ List.map (fun e -> ("exec_ms." ^ e, "ms")) engines
  @ List.map (fun e -> ("exec_tail_ms." ^ e, "ms")) engines
  @ List.filter_map (fun e -> if e = "parallel" then None else Some ("alloc_kw." ^ e, "kw")) engines
  @ [ ("jit.native_share", "ratio"); ("jit.promote_ms", "ms"); ("jit.interpreted_only", "count") ]
  @ [ ("tpch.dbgen_ms", "ms"); ("storage.build_ms", "ms"); ("reference_ms", "ms") ]
  @ [ ("optimize_ms", "ms"); ("lower_ms", "ms") ]
  @ List.map (fun l -> ("self_pct." ^ l, "%")) Common.layers
  @ [ ("error_rate", "ratio"); ("trace.overhead_pct", "%"); ("samples", "count"); ("data_kb", "kb") ]
  @ [ ("scan_kb", "kb") ]
  @ (("cold_ms", "ms") :: List.map (fun e -> ("cold_ms." ^ e, "ms")) codegen)
  @ [ ("native_ready_ms", "ms") ]
  @ List.map (fun e -> ("prepare_ms." ^ e, "ms")) (codegen @ [ "jit" ])
  @ List.map (fun e -> ("source_kb." ^ e, "kb")) (codegen @ [ "jit" ])
  @ [ ("jit.emit_ms", "ms"); ("jit.cc_ms", "ms"); ("jit.validate_ms", "ms"); ("jit.compiles", "count") ]
  @ [ ("jit.disk_hits", "count"); ("decorrelated", "count"); ("shapes", "count") ]
  @ [ ("svc_p50_ms", "ms"); ("svc_tail_ms", "ms"); ("svc_max_rps", "1/s") ]
  @ List.concat_map
      (fun r ->
        let r = Mix.rate_name r in
        [ ("svc_p50_ms." ^ r, "ms"); ("svc_tail_ms." ^ r, "ms") ])
      Mix.rates
  @ [ ("svc.queue_ms_p50", "ms"); ("svc.queue_ms_tail", "ms"); ("svc.exec_ms_p50", "ms") ]
  @ [ ("svc.degraded", "count"); ("svc.refused", "count"); ("plan_cache.hit_ratio", "ratio"); ("result_cache.hit_ratio", "ratio") ]
  @ [ ("plan_cache.invalidations", "count"); ("result_cache.invalidations", "count") ]
  @ [ ("refresh.stall_ms", "ms"); ("refreshes", "count"); ("gen.late_ms_max", "ms") ]

