(* Sales analytics: the paper's motivating application (§1, §6) — an
   application managing nested objects (SaleItem -> Category / Shop ->
   City), with a fixed set of query patterns whose parameters come from
   user interaction. Shows:

   - querying nested object graphs (only interpretive and hybrid engines
     can; the pure-C backend refuses non-flat data, §5);
   - the implicit projection: the hybrid engine stages only the members
     the query touches (§6.1.1) — its staged bytes are read from the
     trace of the run;
   - the Min variant returning references to the original objects (§6.1.1:
     "use the original objects to construct the result");
   - compiled-plan reuse across parameter values.

     dune exec examples/sales_analytics.exe *)

open Lq_value
open Lq_expr.Dsl
module H = Lq_hybrid.Hybrid_engine
module Trace = Lq_trace.Trace

(* Runs [f] under a trace and reads back the staging memory it used: the
   hybrid engine records it as the [bytes] attribute of each staged
   input's "Data staging (C#)" span. *)
let with_staged_bytes f =
  let tr = Trace.start () in
  let result = Fun.protect ~finally:(fun () -> Trace.finish tr) (fun () -> Trace.with_trace tr f) in
  let bytes =
    List.fold_left
      (fun acc (s : Trace.span) ->
        match List.assoc_opt "bytes" s.Trace.attrs with
        | Some b when s.Trace.kind = Trace.Staging -> acc + int_of_string b
        | _ -> acc)
      0 (Trace.spans tr)
  in
  (result, bytes)

let sale_schema =
  Schema.make
    [
      ("id", Vtype.Int);
      ("price", Vtype.Float);
      ("quantity", Vtype.Int);
      ( "item",
        Vtype.Record [ ("name", Vtype.String); ("category", Vtype.String) ] );
      ("shop", Vtype.Record [ ("city", Vtype.String); ("stars", Vtype.Int) ]);
    ]

let cities = [| "London"; "Paris"; "Rome"; "Berlin"; "Madrid"; "Vienna" |]
let categories = [| "Books"; "Games"; "Garden"; "Kitchen"; "Music" |]

let generate n =
  let rng = Lq_exec.Prng.create 2024 in
  List.init n (fun i ->
      Value.record
        [
          ("id", Value.Int i);
          ("price", Value.Float (float_of_int (Lq_exec.Prng.int rng 50000) /. 100.0));
          ("quantity", Value.Int (1 + Lq_exec.Prng.int rng 9));
          ( "item",
            Value.record
              [
                ("name", Value.Str (Printf.sprintf "item-%04d" (Lq_exec.Prng.int rng 500)));
                ("category", Value.Str (Lq_exec.Prng.pick rng categories));
              ] );
          ( "shop",
            Value.record
              [
                ("city", Value.Str (Lq_exec.Prng.pick rng cities));
                ("stars", Value.Int (1 + Lq_exec.Prng.int rng 5));
              ] );
        ])

let () =
  let catalog = Lq_catalog.Catalog.create () in
  Lq_catalog.Catalog.add catalog ~name:"sales" ~schema:sale_schema (generate 50_000);
  let provider = Lq_core.Provider.create catalog in

  (* Pattern 1 (the Fig. 6 query): revenue per category for sales in a
     city chosen in the UI. *)
  let revenue_by_category =
    source "sales"
    |> where "s" (v "s" $. "shop" $. "city" =: p "city")
    |> group_by
         ~key:("s", v "s" $. "item" $. "category")
         ~result:
           ( "g",
             record
               [
                 ("category", v "g" $. "Key");
                 ( "revenue",
                   sum (v "g") "x"
                     ((v "x" $. "price") *: (v "x" $. "quantity")) );
                 ("sales", count (v "g"));
               ] )
    |> order_by [ ("r", v "r" $. "revenue", desc) ]
  in

  print_endline "=== revenue by category (hybrid C#/C over nested objects) ===";
  List.iter
    (fun city ->
      let params = [ ("city", Value.Str city) ] in
      let t0 = Unix.gettimeofday () in
      let rows, staged =
        with_staged_bytes (fun () ->
            Lq_core.Provider.run provider ~engine:Lq_core.Engines.hybrid ~params
              revenue_by_category)
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1000.0 in
      Printf.printf "\n%s (%.1f ms, staged %d bytes after implicit projection):\n" city ms
        staged;
      List.iter (fun r -> Printf.printf "  %s\n" (Value.to_string r)) rows)
    [ "London"; "Paris" ];
  let stats = Lq_core.Provider.cache_stats provider in
  Printf.printf "\nplan compiled once, reused: %d miss, %d hit\n"
    stats.Lq_core.Query_cache.misses stats.Lq_core.Query_cache.hits;

  (* The pure-C backend refuses the nested collection (§5). *)
  (match
     Lq_core.Provider.run provider ~engine:Lq_core.Engines.compiled_c
       ~params:[ ("city", Value.Str "Rome") ]
       revenue_by_category
   with
  | _ -> assert false
  | exception Lq_catalog.Engine_intf.Unsupported msg ->
    Printf.printf "\ncompiled-c refuses nested data, as per §5:\n  %s\n" msg);

  (* Pattern 2: top five-star bargains — a sort whose results must be the
     *original* sale objects (the application may mutate them), so the
     hybrid engine uses the Min variant: it stages only the sort key and
     an index column, sorts in native code, and re-associates the indexes
     with the objects. *)
  let bargains =
    source "sales"
    |> where "s" ((v "s" $. "shop" $. "stars" =: int 5) &&: (v "s" $. "price" <: p "limit"))
    |> order_by [ ("s", v "s" $. "price", asc) ]
    |> take 3
  in
  print_endline "\n=== five-star bargains (Min variant: indexes + lookup) ===";
  let engine_min = H.make ~construction:H.Min () in
  let rows, staged =
    with_staged_bytes (fun () ->
        Lq_core.Provider.run provider ~engine:engine_min
          ~params:[ ("limit", Value.Float 10.0) ]
          bargains)
  in
  Printf.printf "staged only %d bytes (sort key + index)\n" staged;
  List.iter (fun r -> Printf.printf "  %s\n" (Value.to_string r)) rows;
  (* Min returns the original boxed objects — physical identity holds. *)
  let originals = Lq_catalog.Catalog.boxed (Lq_catalog.Catalog.table catalog "sales") in
  let all_original =
    List.for_all (fun r -> Array.exists (fun o -> o == r) originals) rows
  in
  Printf.printf "results are the original application objects: %b\n" all_original
