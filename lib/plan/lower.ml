(* The single lowering pass: AST → physical plan. All the analysis the
   engines used to duplicate happens here, once —

   - adjacent [Where] chains merge into one [Filter] whose conjuncts are
     split and cost-ordered (predicate classification & reordering);
   - [Take (Order_by _)] fuses into a bounded-heap [Top_k];
   - group results are scanned for aggregates over the group variable,
     building the fused, duplicate-eliminated accumulator registry and
     deciding whether group element lists must be kept at all;
   - join strategy is chosen (hash vs nested loops, per options);
   - each scan gets its occurrence name (the hybrid staging identity), its
     flatness, a catalog-seeded cardinality, and the implicit-projection
     field set demanded by the operators above it. *)

module Ast = Lq_expr.Ast
module Value = Lq_value.Value
module Catalog = Lq_catalog.Catalog
module P = Plan

(* Per-conjunct selectivity guess: equality predicates filter harder. *)
let selectivity_of (pr : P.pred) =
  match pr.P.lambda.Ast.body with
  | Ast.Binop (Ast.Eq, _, _) -> 0.1
  | _ -> 0.5

(* --- aggregate analysis ------------------------------------------- *)

(* Scans a group-result body for [Agg (kind, Var g, sel)] occurrences in
   pre-order, registering each in the accumulator registry (first
   occurrence wins under dedup). Returns the registry, the per-occurrence
   slot map, and the residual body with those occurrences blanked — the
   caller re-runs the whole-variable/Items analysis on the residue, so an
   aggregate's group-variable source no longer forces item retention. *)
let analyze_aggs ~(options : Options.t) gparam (body : Ast.expr) =
  let specs = ref [] in
  let count = ref 0 in
  let slots = ref [] in
  let register kind sel =
    let spec = { P.agg = kind; sel } in
    let existing =
      if options.Options.dedup_aggregates then begin
        let rec find i = function
          | [] -> None
          | s :: _ when s = spec -> Some i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 (List.rev !specs)
      end
      else None
    in
    match existing with
    | Some i -> slots := i :: !slots
    | None ->
      specs := spec :: !specs;
      slots := !count :: !slots;
      incr count
  in
  let rec strip (e : Ast.expr) : Ast.expr =
    match e with
    | Ast.Agg (kind, Ast.Var v, sel) when String.equal v gparam ->
      register kind sel;
      Ast.Const Value.Null
    | Ast.Agg (kind, src, sel) ->
      Ast.Agg
        ( kind,
          strip src,
          Option.map
            (fun (l : Ast.lambda) -> { l with Ast.body = strip l.Ast.body })
            sel )
    | Ast.Member (e, f) -> Ast.Member (strip e, f)
    | Ast.Unop (op, e) -> Ast.Unop (op, strip e)
    | Ast.Binop (op, a, b) -> Ast.Binop (op, strip a, strip b)
    | Ast.If (a, b, c) -> Ast.If (strip a, strip b, strip c)
    | Ast.Call (f, args) -> Ast.Call (f, List.map strip args)
    | Ast.Record_of fields ->
      Ast.Record_of (List.map (fun (n, e) -> (n, strip e)) fields)
    | Ast.Subquery _ | Ast.Const _ | Ast.Param _ | Ast.Var _ -> e
  in
  let residue = strip body in
  (List.rev !specs, List.rev !slots, residue)

let analyze_group ~(options : Options.t) (group_result : Ast.lambda option) =
  match group_result with
  | None ->
    (* The group values themselves are the result: items are the payload. *)
    ([], [], true, true)
  | Some result -> (
    match result.Ast.params with
    | [ gparam ] when options.Options.fuse_aggregates ->
      let aggs, occ_slots, residue = analyze_aggs ~options gparam result.Ast.body in
      (* Items are still needed when the residual body reads [g.Items] or
         passes the group value around whole. *)
      let keep_items =
        List.exists
          (fun path ->
            match path with
            | f :: _ -> String.equal f Ast.group_items_field
            | [] -> true)
          (Lq_expr.Paths.of_expr ~var:gparam residue)
      in
      (aggs, occ_slots, true, keep_items)
    | _ ->
      (* Unfused (or odd arity): engines re-walk the materialized items per
         aggregate, LINQ-to-objects style. *)
      ([], [], false, true))

(* The [Aggregate] node over an already-lowered [input], with the
   accumulator registry and item retention analysed from [group_result].
   [lower] builds every grouping through it; the parallel engine reuses it
   to re-analyse a partial-aggregate selector over the same input. *)
let aggregate ?(options = Options.default) (input : P.t) ~key ~group_result : P.t
    =
  let aggs, occ_slots, fused, keep_items = analyze_group ~options group_result in
  {
    P.op =
      P.Aggregate
        { P.input; key; group_result; aggs; occ_slots; fused; keep_items };
    rows = Float.max 1.0 (Float.sqrt input.P.rows);
  }

(* --- implicit projections ------------------------------------------ *)

let union a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> Some (List.sort_uniq compare (x @ y))

(* Root fields a single-parameter lambda reads of its element; [None] when
   the element escapes whole (or the lambda is multi-parameter). *)
let lambda_roots (l : Ast.lambda) : string list option =
  match l.Ast.params with
  | [ v ] ->
    let paths = Lq_expr.Paths.of_expr ~var:v l.Ast.body in
    if List.exists (fun p -> p = []) paths then None
    else
      Some
        (List.sort_uniq compare
           (List.filter_map (function f :: _ -> Some f | [] -> None) paths))
  | _ -> None

let param_roots (l : Ast.lambda) i : string list option =
  match List.nth_opt l.Ast.params i with
  | None -> None
  | Some v ->
    let paths = Lq_expr.Paths.of_expr ~var:v l.Ast.body in
    if List.exists (fun p -> p = []) paths then None
    else
      Some
        (List.sort_uniq compare
           (List.filter_map (function f :: _ -> Some f | [] -> None) paths))

(* Top-down demand propagation: [wanted] is the set of root fields the
   consumers read of this node's output element ([None] = whole element).
   Scans record the final demand as their implicit projection, and the
   demand also decides the storage backend: a scan whose element escapes
   whole ([wanted = None]) reconstructs rows and routes to the rowstore;
   a scan read field-by-field routes to the encoded column store.
   [annotate] is the [lookup] used to fill in the per-column encodings
   (it needs the catalog, which only [lower] holds). *)
let rec demand annotate (wanted : string list option) (p : P.t) : P.t =
  let demand = demand annotate in
  match p.P.op with
  | P.Scan s ->
    let storage : P.storage =
      match wanted with
      | Some fields when s.P.known && s.P.flat ->
        P.Column (annotate s.P.table fields)
      | _ -> P.Row
    in
    { p with P.op = P.Scan { s with P.fields = wanted; storage } }
  | P.Filter (i, preds) ->
    let w =
      List.fold_left (fun acc pr -> union acc (lambda_roots pr.P.lambda)) wanted preds
    in
    { p with P.op = P.Filter (demand w i, preds) }
  | P.Project (i, sel) -> { p with P.op = P.Project (demand (lambda_roots sel) i, sel) }
  | P.Join j ->
    let lw = union (lambda_roots j.P.left_key) (param_roots j.P.result 0) in
    let rw = union (lambda_roots j.P.right_key) (param_roots j.P.result 1) in
    { p with P.op = P.Join { j with P.left = demand lw j.P.left; right = demand rw j.P.right } }
  | P.Aggregate a ->
    let w =
      if a.P.keep_items then None
      else
        List.fold_left
          (fun acc (s : P.agg_spec) ->
            match s.P.sel with
            | None -> acc
            | Some l -> union acc (lambda_roots l))
          (lambda_roots a.P.key) a.P.aggs
    in
    { p with P.op = P.Aggregate { a with P.input = demand w a.P.input } }
  | P.Sort (i, keys) ->
    let w =
      List.fold_left
        (fun acc (k : Ast.sort_key) -> union acc (lambda_roots k.Ast.by))
        wanted keys
    in
    { p with P.op = P.Sort (demand w i, keys) }
  | P.Top_k { input; keys; limit } ->
    let w =
      List.fold_left
        (fun acc (k : Ast.sort_key) -> union acc (lambda_roots k.Ast.by))
        wanted keys
    in
    { p with P.op = P.Top_k { input = demand w input; keys; limit } }
  | P.Limit (i, n) -> { p with P.op = P.Limit (demand wanted i, n) }
  | P.Offset (i, n) -> { p with P.op = P.Offset (demand wanted i, n) }
  | P.Distinct i ->
    (* Distinct hashes the whole element. *)
    { p with P.op = P.Distinct (demand None i) }

(* --- lowering ------------------------------------------------------- *)

let lower ?(options = Options.default) cat (q : Ast.query) : P.t =
  (* Correlated sub-queries the rewrite can handle become grouped joins
     before any lowering analysis; a query the provider's optimizer
     already processed carries the reserved "__dc" names and passes
     through unchanged. *)
  let q = Decorrelate.rewrite q in
  let occ_counter = ref 0 in
  let scan name =
    incr occ_counter;
    let occ = Printf.sprintf "%s#%d" name !occ_counter in
    match Catalog.table cat name with
    | table ->
      {
        P.op =
          P.Scan
            {
              P.table = name;
              occ;
              known = true;
              flat = Catalog.is_flat table;
              fields = None;
              storage = P.Row;
            };
        rows = Float.max 1.0 (float_of_int (Catalog.row_count table));
      }
    | exception Lq_expr.Eval.Unbound_source _ ->
      (* Occurrence renames (hybrid staging) and synthetic sources resolve
         at execution time; assume a flat mid-sized input. *)
      {
        P.op =
          P.Scan
            {
              P.table = name;
              occ;
              known = false;
              flat = true;
              fields = None;
              storage = P.Row;
            };
        rows = 1000.0;
      }
  in
  let rec go (q : Ast.query) : P.t =
    match q with
    | Ast.Source name -> scan name
    | Ast.Where _ ->
      (* Merge the adjacent Where chain (innermost first), split each
         predicate into conjuncts, order them cheapest-first. *)
      let rec peel acc (q : Ast.query) =
        match q with
        | Ast.Where (inner, l) -> peel (l :: acc) inner
        | _ -> (acc, q)
      in
      let lambdas, base = peel [] q in
      let preds =
        List.concat_map
          (fun (l : Ast.lambda) ->
            match l.Ast.params with
            | [ p ] ->
              List.map
                (fun c ->
                  { P.lambda = Ast.lam [ p ] c; cost = Rewrite.predicate_cost c })
                (Rewrite.conjuncts l.Ast.body)
            | _ -> [ { P.lambda = l; cost = Rewrite.predicate_cost l.Ast.body } ])
          lambdas
      in
      let preds =
        List.stable_sort (fun a b -> Float.compare a.P.cost b.P.cost) preds
      in
      let input = go base in
      let rows =
        List.fold_left (fun r pr -> r *. selectivity_of pr) input.P.rows preds
      in
      { P.op = P.Filter (input, preds); rows = Float.max 1.0 rows }
    | Ast.Select (src, sel) ->
      let input = go src in
      { P.op = P.Project (input, sel); rows = input.P.rows }
    | Ast.Join j ->
      let left = go j.Ast.left in
      let right = go j.Ast.right in
      let strategy = if options.Options.hash_join then `Hash else `Nested_loop in
      {
        P.op =
          P.Join
            {
              P.left;
              right;
              left_key = j.Ast.left_key;
              right_key = j.Ast.right_key;
              result = j.Ast.result;
              strategy;
            };
        (* Equi-join heuristic: about as many matches as the larger side. *)
        rows = Float.max left.P.rows right.P.rows;
      }
    | Ast.Group_by g ->
      aggregate ~options (go g.Ast.group_source) ~key:g.Ast.key
        ~group_result:g.Ast.group_result
    | Ast.Take (Ast.Order_by (src, keys), n) when options.Options.fuse_topk ->
      let input = go src in
      let rows =
        match n with
        | Ast.Const (Value.Int k) -> Float.min input.P.rows (float_of_int k)
        | _ -> input.P.rows
      in
      { P.op = P.Top_k { input; keys; limit = n }; rows = Float.max 0.0 rows }
    | Ast.Order_by (src, keys) ->
      let input = go src in
      { P.op = P.Sort (input, keys); rows = input.P.rows }
    | Ast.Take (src, n) ->
      let input = go src in
      let rows =
        match n with
        | Ast.Const (Value.Int k) -> Float.min input.P.rows (float_of_int k)
        | _ -> input.P.rows
      in
      { P.op = P.Limit (input, n); rows = Float.max 0.0 rows }
    | Ast.Skip (src, n) ->
      let input = go src in
      let rows =
        match n with
        | Ast.Const (Value.Int k) -> Float.max 0.0 (input.P.rows -. float_of_int k)
        | _ -> input.P.rows
      in
      { P.op = P.Offset (input, n); rows }
    | Ast.Distinct src ->
      let input = go src in
      { P.op = P.Distinct input; rows = Float.max 1.0 (input.P.rows *. 0.5) }
  in
  (* Encoding annotation forces the table's (cached, Domain-safe) columnar
     decomposition; catalog invalidation drops any plan cached over it. *)
  let annotate table fields =
    match Catalog.table cat table with
    | t ->
      List.filter
        (fun (f, _) -> List.mem f fields)
        (Catalog.column_encodings t)
    | exception Lq_expr.Eval.Unbound_source _ -> []
  in
  demand annotate None (go q)
