module Ast = Lq_expr.Ast
module Shape = Lq_expr.Shape
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Trace = Lq_trace.Trace

type t = {
  cat : Catalog.t;
  cache : Query_cache.t;
  results : Result_cache.t option;
  optimizer : Optimizer.options;
  use_cache : bool;
}

let create ?(optimizer = Optimizer.default) ?(use_cache = true)
    ?(recycle_results = false) ?query_cache_entries ?result_cache_entries
    ?result_cache_rows cat =
  let results =
    if recycle_results then
      Some
        (Result_cache.create ?max_entries:result_cache_entries
           ?max_rows:result_cache_rows ())
    else None
  in
  let cache = Query_cache.create ?max_entries:query_cache_entries () in
  (* The catalog tells us which table changed; stale compiled plans and
     recycled results are dropped table-by-table, untouched tables keep
     their entries. *)
  Catalog.on_invalidate cat (fun table ->
      Query_cache.invalidate cache ~table;
      Option.iter (fun rc -> Result_cache.invalidate rc ~table) results);
  { cat; cache; results; optimizer; use_cache }

let catalog t = t.cat
let cache_stats t = Query_cache.stats t.cache
let cache_counters t = Query_cache.counters t.cache
let clear_cache t = Query_cache.clear t.cache
let optimized t q = Optimizer.run ~options:t.optimizer q

let decorrelated t q =
  Lq_plan.Decorrelate.notes_of_query (optimized t q) <> []

(* Canonicalize + optimize, lower to the shared physical plan, then key
   the cache on the plan's shape; compiled plans always see parameters
   where the query had constants, so a cached plan can be re-run with new
   values. The engine's declared capabilities are checked against the plan
   *before* any code generation is paid. [checkpoint] is called at each
   stage boundary with the stage just finished; raising from it aborts the
   pipeline (the service layer's cooperative deadline cancellation). *)
let prepare_internal t ~(engine : Engine_intf.t) ?instr ?(checkpoint = fun _ -> ()) q =
  let q =
    Trace.with_span Trace.Optimize "optimize" (fun () ->
        Lq_fault.Inject.hit "provider/optimize";
        try optimized t q with
        | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
        | exn ->
          raise
            (Lq_fault.Fault
               (Lq_fault.classify ~stage:"optimize" ~default:Lq_fault.Codegen_error exn)))
  in
  checkpoint "optimized";
  let consts = Shape.consts q in
  let parameterized, _bindings = Shape.parameterize q in
  let plan =
    Trace.with_span Trace.Lower "lower" (fun () ->
        Lq_fault.Inject.hit "provider/lower";
        try Lq_plan.Lower.lower t.cat parameterized with
        | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
        | exn ->
          raise
            (Lq_fault.Fault
               (Lq_fault.classify ~stage:"lower" ~default:Lq_fault.Codegen_error exn)))
  in
  (match Lq_plan.Plan.check engine.Engine_intf.caps plan with
  | Ok () -> ()
  | Error msg -> raise (Engine_intf.Unsupported msg));
  checkpoint "planned";
  let shape = Lq_plan.Plan.shape_key plan in
  (* Anything unclassified escaping an engine's plan builder is a
     code-generation failure — structurally distinct from an execution
     failure, and the breaker/retry policy above treats them differently. *)
  let compile () =
    (* The codegen span lives inside the cache-lookup span, so a cache
       hit structurally cannot contain one — an invariant the trace test
       suite checks. *)
    Trace.with_span Trace.Codegen engine.Engine_intf.name (fun () ->
        Lq_fault.Inject.hit "provider/prepare";
        try engine.Engine_intf.prepare ?instr t.cat parameterized with
        | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
        | exn ->
          raise
            (Lq_fault.Fault
               (Lq_fault.classify ~stage:"prepare" ~default:Lq_fault.Codegen_error exn)))
  in
  let prepared, outcome =
    if t.use_cache && instr = None then
      Trace.with_span Trace.Cache_lookup "query-cache" (fun () ->
          let prepared, outcome =
            Query_cache.find_or_compile t.cache ~engine:engine.Engine_intf.name ~shape
              ~tables:(Ast.sources_of_query q) ~compile ()
          in
          Trace.span_attr "outcome" (match outcome with `Hit -> "hit" | `Miss -> "miss");
          (prepared, outcome))
    else (compile (), `Miss)
  in
  checkpoint "prepared";
  (prepared, outcome, shape, consts)

(* Plan inspection: the lowered plan and the engine's capability verdict,
   with no code generation. [explain] lowers the *unparameterized* query so
   the rendering shows real constants; the verdict is constant-blind. *)
let plan_check t ~(engine : Engine_intf.t) q =
  let q = optimized t q in
  let parameterized, _ = Shape.parameterize q in
  Lq_plan.Plan.check engine.Engine_intf.caps (Lq_plan.Lower.lower t.cat parameterized)

let explain t ~(engine : Engine_intf.t) q =
  let q = optimized t q in
  let plan = Lq_plan.Lower.lower t.cat q in
  let notes = Lq_plan.Decorrelate.notes_of_query q in
  (Lq_plan.Plan.explain ~notes plan, Lq_plan.Plan.check engine.Engine_intf.caps plan)

let prepare_only t ~engine q =
  let prepared, outcome, _, _ = prepare_internal t ~engine q in
  (prepared, outcome)

let run t ~engine ?(params = []) ?checkpoint q =
  let prepared, _, shape, consts = prepare_internal t ~engine ?checkpoint q in
  let all_params = params @ Shape.const_params consts in
  let execute () =
    Trace.with_span Trace.Execute engine.Engine_intf.name (fun () ->
        Lq_fault.Inject.hit "provider/execute";
        let rows =
          try prepared.Engine_intf.execute ~params:all_params () with
          | (Lq_fault.Fault _ | Engine_intf.Unsupported _) as e -> raise e
          | exn ->
            raise
              (Lq_fault.Fault
                 (Lq_fault.classify ~stage:"execute" ~default:Lq_fault.Internal exn))
        in
        (* Materialized result rows count against the ambient per-request
           budget: a runaway result yields a typed [Resource_exhausted]
           before it is copied into caches or response futures. *)
        Lq_fault.Governor.charge_rows ~stage:"materialize" (List.length rows);
        Trace.span_attr "rows" (string_of_int (List.length rows));
        rows)
  in
  match t.results with
  | None -> execute ()
  | Some rc -> (
    (* Result recycling (§9): identical invocations return the
       materialized rows without executing. *)
    Lq_fault.Inject.hit "cache/result";
    let key = Result_cache.key ~engine:engine.Engine_intf.name ~shape ~consts ~params in
    let cached =
      Trace.with_span Trace.Cache_lookup "result-cache" (fun () ->
          let found = Result_cache.find rc key in
          Trace.span_attr "outcome" (if Option.is_some found then "hit" else "miss");
          found)
    in
    match cached with
    | Some rows -> rows
    | None ->
      let rows = execute () in
      Result_cache.store rc key ~tables:(Ast.sources_of_query q) rows;
      rows)

let result_cache_stats t = Option.map Result_cache.stats t.results

let clear_result_cache t = Option.iter Result_cache.clear t.results

let report t =
  let buf = Buffer.create 256 in
  let qstats = Query_cache.stats t.cache in
  Buffer.add_string buf
    (Printf.sprintf
       "query cache: %d entries, %d hit(s), %d miss(es), %d eviction(s), %d \
        rejected, %.2f ms compiling\n"
       qstats.Query_cache.entries qstats.Query_cache.hits qstats.Query_cache.misses
       qstats.Query_cache.evictions qstats.Query_cache.rejected
       qstats.Query_cache.compile_ms);
  (match t.results with
  | None -> ()
  | Some rc ->
    let rstats = Result_cache.stats rc in
    Buffer.add_string buf
      (Printf.sprintf
         "result cache: %d entries (%d rows), %d hit(s), %d miss(es), %d \
          eviction(s), %d invalidated\n"
         rstats.Result_cache.entries rstats.Result_cache.cached_rows
         rstats.Result_cache.hits rstats.Result_cache.misses
         rstats.Result_cache.evictions rstats.Result_cache.invalidations));
  Buffer.add_string buf (Lq_metrics.Counters.to_string (Query_cache.counters t.cache));
  (* Tier counters of the native JIT (compiles, cache hits, per-tier
     executions) — process-global, one block for all providers. *)
  (match Lq_metrics.Counters.to_string Lq_jit.Backend.counters with
  | "" -> ()
  | jit ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf jit);
  (* Morsel-scheduler counters of the parallel engine (work units run,
     executions) — process-global, one block for all providers. *)
  (match Lq_metrics.Counters.to_string Lq_parallel.Parallel_engine.counters with
  | "" -> ()
  | par ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf par);
  (match Trace.Ring.report Trace.slow_log with
  | "" -> ()
  | slow ->
    if Buffer.length buf > 0 && Buffer.nth buf (Buffer.length buf - 1) <> '\n' then
      Buffer.add_char buf '\n';
    Buffer.add_string buf slow);
  Buffer.contents buf

let run_instrumented t ~engine ?(params = []) hierarchy q =
  let instr = Lq_catalog.Instr.of_hierarchy hierarchy in
  let prepared, _, _, consts = prepare_internal t ~engine ~instr q in
  let params = params @ Shape.const_params consts in
  prepared.Engine_intf.execute ~params ()

let reference t ?(params = []) q =
  Lq_expr.Eval.run (Catalog.eval_ctx t.cat ~params) q
