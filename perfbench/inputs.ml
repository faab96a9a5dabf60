(* Seeded inputs shared by the workloads: the TPC-H catalog with its
   stores built, parameter bindings for the suite queries, and the
   engines under measurement. *)

open Common
module Value = Lq_value.Value
module Date = Lq_value.Date
module Catalog = Lq_catalog.Catalog
module Engines = Lq_core.Engines
module Prng = Lq_exec.Prng

(* Metric name of each measured engine. sqlserver-native is left out: it
   is a second registration of compiled-c. hybrid and hybrid-buffered
   report under one name. *)
let engines =
  [
    ("jit", Engines.compiled_c_jit);
    ("native", Engines.compiled_c);
    ("csharp", Engines.compiled_csharp);
    ("hybrid", Engines.hybrid);
    ("hybrid", Engines.hybrid_buffered);
    ("vector", Engines.vectorwise);
    ("parallel", Engines.compiled_c_parallel);
    ("volcano", Engines.sqlserver_interpreted);
    ("linq", Engines.linq_to_objects);
  ]

let engine_names = List.sort_uniq compare (List.map fst engines)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let override params bindings =
  List.map
    (fun (k, v) -> match List.assoc_opt k bindings with Some v' -> (k, v') | None -> (k, v))
    params

let date y m d = Value.Date (Date.of_ymd y m d)

(* One seeded binding of a suite query's parameters, drawn around the
   specification values so every binding selects a non-trivial result. *)
let binding rng name =
  let pick a = Value.Str (Prng.pick rng a) in
  let regions = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |] in
  let b =
    match name with
    | "Q1" -> [ ("q1_delta", Value.Int (Prng.int_range rng 60 120)) ]
    | "Q2" | "Q2corr" ->
      [
        ("q2_size", Value.Int (Prng.int_range rng 1 50));
        ("q2_type", pick [| "%BRASS"; "%STEEL"; "%TIN"; "%NICKEL"; "%COPPER" |]);
        ("q2_region", pick regions);
      ]
    | "Q3" ->
      [
        ("q3_segment", pick [| "AUTOMOBILE"; "BUILDING"; "FURNITURE"; "MACHINERY"; "HOUSEHOLD" |]);
        ("q3_date", date 1995 3 (Prng.int_range rng 1 31));
      ]
    | "Q5" -> [ ("q5_region", pick regions); ("q5_date", date (Prng.int_range rng 1993 1997) 1 1) ]
    | "Q6" ->
      [
        ("q6_date", date (Prng.int_range rng 1993 1997) 1 1);
        ("q6_discount", Value.Float (float_of_int (Prng.int_range rng 2 9) /. 100.));
        ("q6_quantity", Value.Float (float_of_int (Prng.int_range rng 24 25)));
      ]
    | "Q10" -> [ ("q10_date", date (Prng.int_range rng 1993 1994) (Prng.int_range rng 1 12) 1) ]
    | "Q12" ->
      let modes = [| "REG AIR"; "AIR"; "RAIL"; "SHIP"; "TRUCK"; "MAIL"; "FOB" |] in
      let m1 = Prng.int rng 7 in
      let m2 = (m1 + 1 + Prng.int rng 6) mod 7 in
      [
        ("q12_mode1", Value.Str modes.(m1));
        ("q12_mode2", Value.Str modes.(m2));
        ("q12_date", date (Prng.int_range rng 1993 1997) 1 1);
      ]
    | "Q14" -> [ ("q14_date", date (Prng.int_range rng 1993 1997) (Prng.int_range rng 1 12) 1) ]
    | _ -> []
  in
  override Lq_bench.Suite.query_params b

let force_table table =
  ignore (Catalog.boxed table);
  if Catalog.is_flat table then begin
    ignore (Catalog.store table);
    ignore (Catalog.cols table)
  end

(* Generates the catalog (layer [tpch]) and builds every derived store of
   every table (layer [storage]): boxed rows, the flat row store and the
   column store, so no lazy store build lands inside a timed operation. *)
let load ~seed ~sf =
  let t0 = now_ms () in
  let cat = Spans.with_span "tpch" "Dbgen.load" (fun () -> Lq_tpch.Dbgen.load ~seed ~sf ()) in
  let t1 = now_ms () in
  Spans.with_span "storage" "build stores" (fun () ->
      List.iter (fun name -> force_table (Catalog.table cat name)) (Catalog.names cat));
  let t2 = now_ms () in
  (cat, t1 -. t0, t2 -. t1)

(* Bytes of flat row-store data across the catalog: the working set the
   native engines scan. *)
let rowstore_bytes cat =
  List.fold_left
    (fun acc name ->
      let t = Catalog.table cat name in
      if Catalog.is_flat t then
        let s = Catalog.store t in
        acc
        + Lq_storage.Rowstore.length s
          * Lq_storage.Layout.row_width (Lq_storage.Rowstore.layout s)
      else acc)
    0 (Catalog.names cat)

(* Bytes the query's scans read under the lowering's storage choice:
   every row of a row-store scan, the demanded encoded columns of a
   column-store scan. The managed engines (volcano, linq) walk boxed
   rows, which are larger still, so this is the smallest working set any
   engine has for the query. *)
let scan_bytes cat q =
  let module Plan = Lq_plan.Plan in
  let parameterized, _ = Lq_expr.Shape.parameterize (Lq_core.Optimizer.run q) in
  let scan_bytes_of (s : Plan.scan) =
    if not (s.Plan.known && Catalog.mem cat s.Plan.table) then 0
    else
      let t = Catalog.table cat s.Plan.table in
      if not (Catalog.is_flat t) then 0
      else
        match s.Plan.storage with
        | Plan.Row ->
          let rs = Catalog.store t in
          Lq_storage.Rowstore.length rs * Lq_storage.Layout.row_width (Lq_storage.Rowstore.layout rs)
        | Plan.Column encs ->
          let cols = Catalog.cols t in
          let layout = Lq_storage.Colstore.layout cols in
          List.fold_left
            (fun acc (field, _) ->
              match Lq_storage.Layout.field_index layout field with
              | Some i -> acc + Lq_storage.Colstore.encoded_bytes cols i
              | None -> acc)
            0 encs
  in
  let rec go (p : Plan.t) =
    let own = match p.Plan.op with Plan.Scan s -> scan_bytes_of s | _ -> 0 in
    List.fold_left (fun acc c -> acc + go c) own (Plan.children p)
  in
  go (Lq_plan.Lower.lower cat parameterized)

(* Per-core L2 of the host the benchmark was tuned on (2 vCPUs, 2 MiB
   L2 each). *)
let l2_bytes = 2 * 1024 * 1024
