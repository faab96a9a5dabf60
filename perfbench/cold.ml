(* cold-shapes: a seeded stream of distinct query shapes, each submitted
   once per engine through Provider.run on data that fits in L2. First
   results cost optimization, lowering, code generation and (for
   compiled-c-jit) emission, cc, validation and dlopen; execution is a
   small share. The stream is replayed in rounds, each on an empty plan
   cache and an empty private JIT artifact directory, and every
   (shape, engine) reports the median over rounds. *)

open Common
module Provider = Lq_core.Provider
module Engine_intf = Lq_catalog.Engine_intf
module Prng = Lq_exec.Prng

let sf = 0.002
(* Many shapes per round, so a run's geomean does not hang on which few
   shapes its seed drew; the JIT, whose cc run costs ~100x a codegen
   engine's first result, measures the first [jit_shapes] of them that
   have a C form. *)
let shapes_per_round = 192
let jit_shapes = 4

(* Engines whose first submission pays code generation (cold_ms), and
   the JIT, which reports how long until it serves natively. *)
let codegen_engines =
  [
    ("csharp", Lq_core.Engines.compiled_csharp);
    ("native", Lq_core.Engines.compiled_c);
    ("hybrid", Lq_core.Engines.hybrid);
    ("vector", Lq_core.Engines.vectorwise);
  ]

let jit = Lq_core.Engines.compiled_c_jit

(* ------------------------------------------------------------------ *)
(* shapes from TPC-H building blocks *)

let pick_some rng a n =
  let a = Inputs.shuffle rng (Array.copy a) in
  Array.to_list (Array.sub a 0 n)

(* One random shape of stratum [(joined, output)]: a lineitem filter,
   joined to nothing, orders or part ([joined] 0, 1, 2), then a scalar
   aggregate, a grouping with an aggregate list, or an order/take
   ([output] 0, 1, 2). *)
let random_shape rng (joined, output) =
  let open Lq_expr.Dsl in
  let day () =
    Printf.sprintf "199%d-%02d-%02d" (Prng.int_range rng 2 8) (Prng.int_range rng 1 12)
      (Prng.int_range rng 1 28)
  in
  let l f = v "l" $. f in
  let preds =
    [|
      (fun () -> l "l_shipdate" <=: date (day ()));
      (fun () -> l "l_shipdate" >=: date (day ()));
      (fun () -> l "l_quantity" <: float (float_of_int (Prng.int_range rng 10 45)));
      (fun () ->
        let d = float_of_int (Prng.int_range rng 2 8) /. 100. in
        (l "l_discount" >=: float (d -. 0.01)) &&: (l "l_discount" <=: float (d +. 0.01)));
      (fun () -> l "l_returnflag" =: str (Prng.pick rng [| "A"; "N"; "R" |]));
      (fun () -> l "l_shipmode" <>: str (Prng.pick rng [| "MAIL"; "SHIP"; "AIR"; "RAIL" |]));
      (fun () -> l "l_extendedprice" >: float (float_of_int (Prng.int_range rng 1000 40000)));
    |]
  in
  let conj =
    match pick_some rng preds (1 + Prng.int rng 3) with
    | [] -> assert false
    | p :: ps -> List.fold_left (fun acc q -> acc &&: q ()) (p ()) ps
  in
  let li = source "lineitem" |> where "l" conj in
  let base_fields x =
    [
      ("okey", v x $. "l_orderkey");
      ("line", v x $. "l_linenumber");
      ("qty", v x $. "l_quantity");
      ("price", v x $. "l_extendedprice");
      ("disc", v x $. "l_discount");
      ("flag", v x $. "l_returnflag");
      ("status", v x $. "l_linestatus");
      ("mode", v x $. "l_shipmode");
    ]
  in
  let rows, keys =
    match joined with
    | 0 -> (li |> select "x" (record (base_fields "x")), [ "flag"; "status"; "mode" ])
    | 1 ->
      ( join
          ~on:(("x", v "x" $. "l_orderkey"), ("o", v "o" $. "o_orderkey"))
          ~result:("x", "o", record (base_fields "x" @ [ ("prio", v "o" $. "o_orderpriority") ]))
          li (source "orders"),
        [ "flag"; "mode"; "prio" ] )
    | _ ->
      ( join
          ~on:(("x", v "x" $. "l_partkey"), ("pt", v "pt" $. "p_partkey"))
          ~result:("x", "pt", record (base_fields "x" @ [ ("brand", v "pt" $. "p_brand") ]))
          li (source "part"),
        [ "flag"; "status"; "brand" ] )
  in
  let aggs =
    [|
      ("sum_qty", fun g -> sum (v g) "a" (v "a" $. "qty"));
      ("sum_price", fun g -> sum (v g) "a" (v "a" $. "price"));
      ( "sum_disc_price",
        fun g -> sum (v g) "a" ((v "a" $. "price") *: (float 1.0 -: (v "a" $. "disc"))) );
      ("avg_disc", fun g -> avg (v g) "a" (v "a" $. "disc"));
      ("count", fun g -> count (v g));
      ("min_price", fun g -> min_of (v g) "a" (v "a" $. "price"));
      ("max_qty", fun g -> max_of (v g) "a" (v "a" $. "qty"));
    |]
  in
  let agg_list () =
    List.map (fun (name, f) -> (name, f "g")) (pick_some rng aggs (1 + Prng.int rng 4))
  in
  match output with
  | 0 ->
    (* scalar aggregate *)
    rows |> group_by ~key:("r", int 1) ~result:("g", record (agg_list ()))
  | 1 ->
    let ks = pick_some rng (Array.of_list keys) (1 + Prng.int rng 2) in
    let key = record (List.map (fun k -> (k, v "r" $. k)) ks) in
    let out = List.map (fun k -> (k, v "g" $. "Key" $. k)) ks in
    rows
    |> group_by ~key:("r", key) ~result:("g", record (out @ agg_list ()))
    |> order_by (List.map (fun k -> ("o", v "o" $. k, asc)) ks)
  | _ ->
    (* top-N rows; (okey, line) makes the order total *)
    let by = Prng.pick rng [| "price"; "qty"; "disc" |] in
    rows
    |> order_by
         [ ("o", v "o" $. by, desc); ("o", v "o" $. "okey", asc); ("o", v "o" $. "line", asc) ]
    |> take (Prng.int_range rng 5 50)

let lowered cat q =
  let parameterized, _ = Lq_expr.Shape.parameterize (Lq_core.Optimizer.run q) in
  Lq_plan.Lower.lower cat parameterized

let shape_key cat q = Lq_plan.Plan.shape_key (lowered cat q)

(* Whether compiled-c-jit can take the shape to its native tier. *)
let has_c_form cat q =
  match Lq_native.Codegen_c.emit_plan cat (lowered cat q) with
  | _ -> true
  | exception Lq_native.Codegen_c.Unsupported_c _ -> false

(* [n] shapes with pairwise distinct plan shape keys, in a seeded order:
   the suite queries (under their specification bindings), then random
   shapes drawn from the nine (joined, output) strata in turn, so every
   seed gets the same mix of joins, groupings and top-N. *)
let shapes rng cat n =
  let seen = Hashtbl.create 64 in
  let take acc (name, q, params) =
    if List.length acc >= n then acc
    else
      match shape_key cat q with
      | key when not (Hashtbl.mem seen key) ->
        Hashtbl.replace seen key ();
        (name, q, params, key) :: acc
      | _ -> acc
      | exception _ -> acc
  in
  let suite =
    List.map (fun (name, q) -> (name, q, Lq_bench.Suite.query_params)) Lq_bench.Suite.queries
  in
  let acc = List.fold_left take [] suite in
  let rec fill acc i =
    if List.length acc >= n || i > 50 * n then acc
    else
      let stratum = (i mod 3, i / 3 mod 3) in
      fill (take acc (Printf.sprintf "S%d" i, random_shape rng stratum, [])) (i + 1)
  in
  Array.to_list (Inputs.shuffle rng (Array.of_list (fill acc 0)))

(* ------------------------------------------------------------------ *)

let run ~seed ~seconds =
  let (rng, cat, dbgen_ms, storage_ms, shapes, refs, reference_ms, decorrelated, jit_names), setup_ms =
    repeated_setup (fun () ->
        let rng = Prng.create seed in
        let cat, dbgen_ms, storage_ms = Inputs.load ~seed ~sf in
        let shapes = shapes rng cat shapes_per_round in
        let ref0 = now_ms () in
        let prov = Provider.create cat in
        let refs =
          Spans.with_span "reference" "Provider.reference" (fun () ->
              List.map (fun (_, q, params, _) -> Provider.reference prov ~params q) shapes)
        in
        let reference_ms = now_ms () -. ref0 in
        let decorrelated =
          List.length (List.filter (fun (_, q, _, _) -> Provider.decorrelated prov q) shapes)
        in
        let jit_names =
          List.filteri
            (fun i _ -> i < jit_shapes)
            (List.filter_map (fun (name, q, _, _) -> if has_c_form cat q then Some name else None) shapes)
        in
        (rng, cat, dbgen_ms, storage_ms, shapes, refs, reference_ms, decorrelated, jit_names))
  in
  let setup_s = setup_ms /. 1000. in
  let data_bytes = Inputs.rowstore_bytes cat in
  let tally = tally () in
  (* (shape, engine) → first-result latencies, one per round *)
  let cold = Hashtbl.create 64 and cold_traced = Hashtbl.create 64 in
  let ready = Hashtbl.create 16 in
  let prepare = Hashtbl.create 8 and source = Hashtbl.create 8 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)) in
  (* (shape, codegen engine) → words one plan preparation allocates *)
  let allocs = Hashtbl.create 64 in
  (* jit shapes served interpreted: each makes the run invalid *)
  let interpreted_only = ref [] in
  let rounds = ref 0 and misses_ok = ref true in
  let disk0 = jit_count "cache_hit_disk" and compiles0 = jit_count "compiles" in
  let cc0 = jit_ms "compile_ms" in
  let deadline = now_ms () +. (1000. *. seconds) in
  Spans.phase := "timed";
  (* A traced run alternates traced and untraced rounds (at least one of
     each); the untraced rounds give the numbers. *)
  while !rounds < (if !Spans.on then 2 else 1) || now_ms () < deadline do
    incr rounds;
    let traced = !Spans.on && !rounds land 1 = 1 in
    let prov = Provider.create cat in
    Jit_dir.reset ();
    (* Each (shape, engine) submission the engine did not refuse up front
       must miss the plan cache; the only hits are the prepare_only
       lookups made after a first result. *)
    let expected_misses = ref 0 and expected_hits = ref 0 in
    let order = Array.of_list (List.combine shapes refs) in
    Array.iter
      (fun ((name, q, params, _), expected) ->
        let engines =
          if List.mem name jit_names then ("jit", jit) :: codegen_engines else codegen_engines
        in
        let engines = Inputs.shuffle rng (Array.of_list engines) in
        Array.iter
          (fun (ename, (engine : Engine_intf.t)) ->
            let native0 = jit_count "exec_jit" in
            let t0 = now_ms () in
            match
              if traced then
                Spans.with_span "provider" ("Provider.run " ^ name) (fun () ->
                    Spans.traced (fun () -> Provider.run prov ~engine ~params q))
              else Provider.run prov ~engine ~params q
            with
            | rows ->
              let dt = now_ms () -. t0 in
              incr expected_misses;
              if not (matches q ~expected rows) then
                note_failed tally (Printf.sprintf "%s on %s: result differs from the reference" name engine.Engine_intf.name)
              else begin
                note_ok tally;
                if String.equal ename "jit" then begin
                  if jit_count "exec_jit" > native0 then (if not traced then add ready name dt)
                  else if not (List.mem name !interpreted_only) then
                    interpreted_only := name :: !interpreted_only
                end
                else if traced then add cold_traced (name, ename) dt
                else add cold (name, ename) dt;
                (* Allocation of the compile path alone (optimizer,
                   lowering, codegen), on a plan cache of its own: it
                   repeats exactly, where a first result's allocation
                   also grows with how many rows the shape's seeded
                   predicates select. *)
                if !rounds = 1 && not (String.equal ename "jit") then begin
                  let w0 = Gc.minor_words () in
                  ignore (Provider.prepare_only (Provider.create cat) ~engine q);
                  add allocs (name, ename) (Gc.minor_words () -. w0)
                end;
                if !rounds = 1 then begin
                  incr expected_hits;
                  let prepared, _ = Provider.prepare_only prov ~engine q in
                  add prepare ename prepared.Engine_intf.codegen_ms;
                  add source ename
                    (float_of_int (String.length (Option.value ~default:"" prepared.Engine_intf.source))
                    /. 1024.)
                end
              end
            | exception Engine_intf.Unsupported _ ->
              if Provider.plan_check prov ~engine q = Ok () then incr expected_misses
            | exception e ->
              incr expected_misses;
              note_failed tally (Printf.sprintf "%s on %s: %s" name engine.Engine_intf.name (Printexc.to_string e)))
          engines)
      order;
    let stats = Provider.cache_stats prov in
    if stats.Lq_core.Query_cache.misses <> !expected_misses || stats.Lq_core.Query_cache.hits <> !expected_hits
    then misses_ok := false
  done;
  let disk_hits = jit_count "cache_hit_disk" - disk0 in
  let validate_ms, validations = Spans.sum_ms ~layer:"jit" ~prefix:"validate" in
  (* C emission alone, outside the timed rounds: lowering then
     Codegen_c.emit_plan for every shape with a C form. *)
  let emit_ms =
    List.filter_map
      (fun (_, q, _, _) ->
        let lowered = lowered cat q in
        let t0 = now_ms () in
        match Spans.with_span "jit" "Codegen_c.emit_plan" (fun () -> Lq_native.Codegen_c.emit_plan cat lowered) with
        | _ -> Some (now_ms () -. t0)
        | exception Lq_native.Codegen_c.Unsupported_c _ -> None)
      shapes
  in
  let compiles = jit_count "compiles" - compiles0 in
  let cc_ms = jit_ms "compile_ms" -. cc0 in
  let med tbl = Hashtbl.fold (fun k v acc -> (k, median v) :: acc) tbl [] in
  let cold_med = med cold in
  let of_engine e = List.filter_map (fun ((_, e'), m) -> if String.equal e e' then Some m else None) cold_med in
  let cold_ms = geomean (List.map snd cold_med) in
  let ready_med = List.map snd (med ready) in
  let native_ready = if ready_med = [] then 0. else median ready_med in
  let all_firsts = Hashtbl.fold (fun _ v acc -> v @ acc) cold [] in
  let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs)) in
  let keys = List.map (fun (_, _, _, k) -> k) shapes in
  let overhead =
    match
      Hashtbl.fold
        (fun k v acc ->
          match Hashtbl.find_opt cold k with Some u -> (median v /. median u) :: acc | None -> acc)
        cold_traced []
    with
    | [] -> 0.
    | ratios -> Float.max 0. (100. *. (geomean ratios -. 1.)) (* below 0 is noise *)
  in
  let distinct = List.length (List.sort_uniq compare keys) = List.length keys in
  let metrics =
    [
      metric "setup_s" "s" setup_s;
      metric "latency_ms" "ms" cold_ms;
      metric "tail_ms" "ms" (tail all_firsts);
      metric "alloc_kw" "kw" (geomean (List.map snd (med allocs)) /. 1000.);
      metric "cold_ms" "ms" cold_ms;
      metric "native_ready_ms" "ms" native_ready;
      metric "jit.interpreted_only" "count" (float_of_int (List.length !interpreted_only));
      metric "jit.compiles" "count" (float_of_int compiles /. float_of_int !rounds);
      metric "jit.cc_ms" "ms" (if compiles = 0 then 0. else cc_ms /. float_of_int compiles);
      metric "jit.disk_hits" "count" (float_of_int disk_hits);
      metric "jit.emit_ms" "ms" (mean emit_ms);
      metric "jit.validate_ms" "ms" (if validations = 0 then 0. else validate_ms /. float_of_int validations);
      metric "trace.overhead_pct" "%" overhead;
      metric "decorrelated" "count" (float_of_int decorrelated);
      metric "shapes" "count" (float_of_int (List.length shapes));
      metric "samples" "count" (float_of_int (List.length all_firsts));
      metric "tpch.dbgen_ms" "ms" dbgen_ms;
      metric "storage.build_ms" "ms" storage_ms;
      metric "reference_ms" "ms" reference_ms;
      metric "data_kb" "kb" (float_of_int data_bytes /. 1024.);
    ]
    @ List.map (fun (e, _) -> metric ("cold_ms." ^ e) "ms" (geomean (of_engine e))) codegen_engines
    @ Hashtbl.fold (fun e v acc -> metric ("prepare_ms." ^ e) "ms" (mean v) :: acc) prepare []
    @ Hashtbl.fold (fun e v acc -> metric ("source_kb." ^ e) "kb" (mean v) :: acc) source []
  in
  {
    metrics;
    tally;
    valid =
      [
        (disk_hits = 0, Printf.sprintf "jit.disk_hits = %d, must be 0" disk_hits);
        (!misses_ok, "plan-cache misses must equal shapes x engines");
        (distinct, "shape keys must be distinct");
        ( List.length jit_names = jit_shapes,
          Printf.sprintf "%d shapes with a C form for compiled-c-jit, need %d" (List.length jit_names) jit_shapes );
        ( !interpreted_only = [],
          "compiled-c-jit must serve every shape natively on its first submission; interpreted: "
          ^ String.concat ", " (List.rev !interpreted_only) );
        (data_bytes < Inputs.l2_bytes, Printf.sprintf "row-store data %d bytes must fit the L2" data_bytes);
      ];
  }
