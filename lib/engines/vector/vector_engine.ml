open Lq_value
module Ast = Lq_expr.Ast
module Typed = Lq_expr.Typed
module Eval = Lq_expr.Eval
module Catalog = Lq_catalog.Catalog
module Engine_intf = Lq_catalog.Engine_intf
module Colstore = Lq_storage.Colstore
module Rowstore = Lq_storage.Rowstore
module Selvec = Lq_storage.Selvec
module Layout = Lq_storage.Layout
module Dict = Lq_storage.Dict
module P = Lq_plan.Plan

let unsupported = Engine_intf.unsupported

(* Dense typed vectors; integer vectors carry the host type they decode to
   (int / date / bool / dictionary-coded string). Scan-resident columns
   stay *encoded* ([CE]) until an operator gathers them: predicates probe
   the encoding directly (once per dictionary entry / RLE run) and only
   the surviving rows are ever decoded. The [plain] cell memoizes a full
   decode within one execution (the dataset is per-execute, so the
   mutation is Domain-safe). *)
type col =
  | CI of int array * Vtype.t
  | CF of float array
  | CE of ecol

and ecol = {
  data : Colstore.data;
  ty : Vtype.t;
  mutable plain : col option;
}

(* A named-column relation plus an optional selection vector. *)
type rel = { n : int; cols : (string * col) list }

type dataset = { rel : rel; sel : Selvec.t option }

let ds_len ds = match ds.sel with Some s -> Selvec.length s | None -> ds.rel.n

let decode_full (e : ecol) : col =
  match e.plain with
  | Some c -> c
  | None ->
    let c =
      match e.data with
      | Colstore.Floats _ | Colstore.Dict_floats _ ->
        CF (Colstore.decode_floats e.data)
      | _ -> CI (Colstore.decode_ints e.data, e.ty)
    in
    e.plain <- Some c;
    c

let rec gather c (sel : Selvec.t option) =
  match (c, sel) with
  | CE e, None -> decode_full e
  | CE ({ plain = Some c; _ }), Some _ -> gather c sel
  | CE e, Some s -> (
    match e.data with
    | Colstore.Floats _ | Colstore.Dict_floats _ ->
      CF (Array.map (Colstore.get_float_at e.data) (Selvec.to_array s))
    | _ -> CI (Array.map (Colstore.get_int_at e.data) (Selvec.to_array s), e.ty))
  | _, None -> c
  | CI (a, ty), Some s -> CI (Array.map (fun i -> a.(i)) (Selvec.to_array s), ty)
  | CF a, Some s -> CF (Array.map (fun i -> a.(i)) (Selvec.to_array s))

let rel_of_colstore ?(fields = None) cs =
  let layout = Colstore.layout cs in
  {
    n = Colstore.length cs;
    cols =
      Array.to_list (Layout.fields layout)
      |> List.filteri (fun _ (f : Layout.field) ->
             match fields with
             | None -> true
             | Some fs -> List.mem f.Layout.name fs)
      |> List.map (fun (f : Layout.field) ->
             let i = Layout.field_index_exn layout f.Layout.name in
             ( f.Layout.name,
               CE { data = Colstore.column cs i; ty = f.Layout.vty; plain = None } ));
  }

let find_col rel name =
  match List.assoc_opt name rel.cols with
  | Some c -> c
  | None -> unsupported "vectorized: unknown column %S" name

(* ---------- Vectorized expression evaluation ---------- *)

type vctx = {
  dict : Dict.t;
  params : (string * Value.t) list;
  eval_ctx : Eval.ctx;
}

let col_type = function
  | CI (_, ty) -> ty
  | CF _ -> Vtype.Float
  | CE e -> e.ty

let broadcast vc n (v : Value.t) =
  match (v, Value.type_of v) with
  | Value.Float f, _ -> CF (Array.make n f)
  | v, Some ty when Vtype.is_scalar ty ->
    CI (Array.make n (Option.get (Typed.int_image ~intern:(Dict.intern vc.dict) v)), ty)
  | v, _ -> unsupported "vectorized constant %s" (Value.to_string v)

let rec to_float_arr = function
  | CF a -> a
  | CI (a, Vtype.Int) -> Array.map float_of_int a
  | CI (_, ty) -> unsupported "vectorized: %s as float" (Vtype.to_string ty)
  | CE e -> to_float_arr (decode_full e)

(* Integer images (ints, dates, dictionary codes, 0/1 bools) and float
   vectors of values the typed form already typed. *)
let ints = function
  | CI (a, _) -> a
  | CF _ | CE _ -> invalid_arg "vectorized: expected an integer vector"

let floats = function
  | CF a -> a
  | CI _ | CE _ -> invalid_arg "vectorized: expected a float vector"

(* [env] binds lambda variables to datasets of identical length. The
   plan runs once per execution, so parameters are typed by their bound
   values. *)
let rec veval vc ~(env : (string * dataset) list)
    ?(on_agg = fun _ _ _ -> (None : col option)) ~n (e : Ast.expr) : col =
  let nested (e : Ast.expr) =
    let c =
      match e with
      | Ast.Agg (kind, src, sel) -> (
        match (on_agg kind src sel, src) with
        | Some c, _ -> c
        | None, Ast.Subquery q when not (Ast.is_correlated q) ->
          broadcast vc n (Eval.expr vc.eval_ctx ~env:[] e)
        | None, _ -> unsupported "vectorized aggregate outside a group")
      | Ast.Subquery q when Ast.is_correlated q ->
        unsupported "correlated sub-query left by the decorrelation pass (vectorwise)"
      | _ -> broadcast vc n (Eval.expr vc.eval_ctx ~env:[] e)
    in
    (c, col_type c)
  in
  let var v =
    Option.map
      (fun ds -> Typed.Element (fun f -> Option.map col_type (List.assoc_opt f ds.rel.cols)))
      (List.assoc_opt v env)
  in
  match
    Typed.of_expr
      ~param_type:(fun p -> Option.bind (List.assoc_opt p vc.params) Value.type_of)
      ~var ~nested e
  with
  | typed -> emit vc ~env ~n typed
  | exception Lq_expr.Typecheck.Type_error msg -> unsupported "vectorized: %s" msg

and emit vc ~env ~n (e : col Typed.t) : col =
  let go = emit vc ~env ~n in
  let both arr a b =
    let xa = arr (go a) in
    (xa, arr (go b))
  in
  let int_op ?(ty = Vtype.Int) f a b =
    let xa, xb = both ints a b in
    CI (Array.init n (fun i -> f xa.(i) xb.(i)), ty)
  in
  let mask f = CI (Array.init n f, Vtype.Bool) in
  match e.Typed.node with
  | Typed.Const v -> broadcast vc n v
  | Typed.Param p -> (
    match e.Typed.ty with
    | Vtype.Float -> CF (Array.make n (Engine_intf.float_register vc.params p))
    | ty -> CI (Array.make n (Engine_intf.int_register vc.dict vc.params p), ty))
  | Typed.Var _ -> assert false (* datasets type as records *)
  | Typed.Field (v, field) ->
    let ds = List.assoc v env in
    gather (find_col ds.rel field) ds.sel
  | Typed.Nested c -> c
  | Typed.To_float x -> CF (Array.map float_of_int (ints (go x)))
  | Typed.Neg x -> (
    match go x with
    | CF a -> CF (Array.map (fun x -> -.x) a)
    | c -> CI (Array.map (fun x -> -x) (ints c), Vtype.Int))
  | Typed.Not x -> CI (Array.map (fun x -> 1 - x) (ints (go x)), Vtype.Bool)
  | Typed.And (a, b) -> int_op ~ty:Vtype.Bool ( land ) a b
  | Typed.Or (a, b) -> int_op ~ty:Vtype.Bool ( lor ) a b
  | Typed.Arith (op, a, b) when Vtype.equal e.Typed.ty Vtype.Float ->
    let f = Typed.float_arith op and xa, xb = both floats a b in
    CF (Array.init n (fun i -> f xa.(i) xb.(i)))
  | Typed.Arith (op, a, b) -> int_op (Typed.int_arith op) a b
  | Typed.Int_div (a, b) -> int_op ( / ) a b
  | Typed.Int_mod (a, b) -> int_op ( mod ) a b
  | Typed.Cmp (op, a, b) ->
    let test = Typed.test op and xa, xb = both ints a b in
    mask (fun i -> Bool.to_int (test (Int.compare xa.(i) xb.(i))))
  | Typed.Fcmp (op, a, b) ->
    let test = Typed.test op and xa, xb = both floats a b in
    mask (fun i -> Bool.to_int (test (Float.compare xa.(i) xb.(i))))
  | Typed.Scmp (op, a, b) ->
    let test = Typed.test op and d = vc.dict and xa, xb = both ints a b in
    mask (fun i -> Bool.to_int (test (String.compare (Dict.get d xa.(i)) (Dict.get d xb.(i)))))
  | Typed.If (c, a, b) -> (
    let cv = ints (go c) in
    let pick ta ea = Array.init n (fun i -> if cv.(i) <> 0 then ta.(i) else ea.(i)) in
    match e.Typed.ty with
    | Vtype.Float -> CF (pick (floats (go a)) (floats (go b)))
    | ty -> CI (pick (ints (go a)) (ints (go b)), ty))
  | Typed.Call (Ast.Abs, [ x ]) when Vtype.equal x.Typed.ty Vtype.Float ->
    CF (Array.map Float.abs (floats (go x)))
  | Typed.Call (f, args) -> (
    let g = Typed.call_image ~decode:(Dict.get vc.dict) ~intern:(Dict.intern vc.dict) f in
    match List.map (fun a -> ints (go a)) args with
    | [ xa ] -> CI (Array.map (fun x -> g x 0) xa, e.Typed.ty)
    | [ xa; xb ] -> CI (Array.init n (fun i -> g xa.(i) xb.(i)), e.Typed.ty)
    | _ -> unsupported "vectorized call %s" (Lq_expr.Pretty.func_name f))

(* ---------- Key hashing over composite integer images ---------- *)

(* A float's 64 bits do not fit one 63-bit int, so float key columns
   contribute two integer image columns. *)
let rec key_images = function
  | CE e -> key_images (decode_full e)
  | CI (a, _) -> [ a ]
  | CF a ->
    [
      Array.map
        (fun f -> Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 32))
        a;
      Array.map (fun f -> Int64.to_int (Int64.logand (Int64.bits_of_float f) 0xFFFFFFFFL)) a;
    ]

(* Dense slot assignment per row over one or more key columns. *)
let slots_of_keys (parts : int array list) n =
  let tbl = Hashtbl.create 1024 in
  let slots = Array.make n 0 in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let key = List.map (fun p -> p.(i)) parts in
    match Hashtbl.find_opt tbl key with
    | Some s -> slots.(i) <- s
    | None ->
      Hashtbl.add tbl key !count;
      slots.(i) <- !count;
      incr count
  done;
  (slots, !count, tbl)

(* ---------- Operator compilation (column-at-a-time) ---------- *)

let scalar_field = "__val"

let rec run vc cat (p : P.t) : dataset =
  match p.P.op with
  | P.Scan s ->
    (* Implicit projection from the shared demand analysis: expose only
       the columns downstream operators read, still encoded. *)
    let rel =
      rel_of_colstore ~fields:s.P.fields (Catalog.cols (Catalog.table cat s.P.table))
    in
    { rel; sel = None }
  | P.Filter (input, preds) ->
    (* Conjuncts arrive cost-ordered from the plan; each narrows the
       selection vector before the next (more expensive) one runs. *)
    List.fold_left (apply_pred vc) (run vc cat input) preds
  | P.Project (input, sel) -> (
    let ds = run vc cat input in
    let n = ds_len ds in
    match sel.Ast.params with
    | [ p ] ->
      let env = [ (p, ds) ] in
      (match sel.Ast.body with
      | Ast.Var x when String.equal x p -> ds
      | Ast.Record_of fields ->
        { rel =
            { n;
              cols = List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields };
          sel = None }
      | e -> { rel = { n; cols = [ (scalar_field, veval vc ~env ~n e) ] }; sel = None })
    | _ -> unsupported "vectorized select arity")
  | P.Join { P.left; right; left_key; right_key; result; strategy = _ } ->
    (* The only vectorized join is the positional hash join below, so the
       plan's strategy hint is moot. *)
    let lds = run vc cat left and rds = run vc cat right in
    let ln = ds_len lds and rn = ds_len rds in
    let key_cols ds (l : Ast.lambda) n =
      match (l.Ast.params, l.Ast.body) with
      | [ p ], Ast.Record_of fields ->
        List.concat_map (fun (_, e) -> key_images (veval vc ~env:[ (p, ds) ] ~n e)) fields
      | [ p ], e -> key_images (veval vc ~env:[ (p, ds) ] ~n e)
      | _ -> unsupported "vectorized join key"
    in
    let lkeys = key_cols lds left_key ln and rkeys = key_cols rds right_key rn in
    (* Build: key -> right positions (in order). *)
    let tbl = Hashtbl.create (max 16 rn) in
    for i = rn - 1 downto 0 do
      let key = List.map (fun p -> p.(i)) rkeys in
      let tail = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      Hashtbl.replace tbl key (i :: tail)
    done;
    let lpos = ref [] and rpos = ref [] and count = ref 0 in
    for i = 0 to ln - 1 do
      let key = List.map (fun p -> p.(i)) lkeys in
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some matches ->
        List.iter
          (fun j ->
            lpos := i :: !lpos;
            rpos := j :: !rpos;
            incr count)
          matches
    done;
    let lpos = Array.of_list (List.rev !lpos) in
    let rpos = Array.of_list (List.rev !rpos) in
    let compose ds pos = Selvec.compose ds.sel (Selvec.of_array pos) in
    let ldsel = { rel = lds.rel; sel = Some (compose lds lpos) } in
    let rdsel = { rel = rds.rel; sel = Some (compose rds rpos) } in
    let n = Array.length lpos in
    (match result.Ast.params with
    | [ pl; pr ] -> (
      let env = [ (pl, ldsel); (pr, rdsel) ] in
      match result.Ast.body with
      | Ast.Var x when String.equal x pl -> ldsel
      | Ast.Var x when String.equal x pr -> rdsel
      | Ast.Record_of fields ->
        { rel =
            { n;
              cols = List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields };
          sel = None }
      | e -> { rel = { n; cols = [ (scalar_field, veval vc ~env ~n e) ] }; sel = None })
    | _ -> unsupported "vectorized join result arity")
  | P.Aggregate a -> (
    let ds = run vc cat a.P.input in
    let n = ds_len ds in
    let result =
      match a.P.group_result with
      | Some r -> r
      | None -> unsupported "vectorized GroupBy without result selector"
    in
    let kparam =
      match a.P.key.Ast.params with
      | [ p ] -> p
      | _ -> unsupported "vectorized group key arity"
    in
    let gvar =
      match result.Ast.params with
      | [ p ] -> p
      | _ -> unsupported "vectorized group result arity"
    in
    let env = [ (kparam, ds) ] in
    let key_fields =
      match a.P.key.Ast.body with
      | Ast.Record_of fields ->
        List.map (fun (fname, e) -> (fname, veval vc ~env ~n e)) fields
      | e -> [ (scalar_field, veval vc ~env ~n e) ]
    in
    let slots, ngroups, _ =
      slots_of_keys (List.concat_map (fun (_, c) -> key_images c) key_fields) n
    in
    (* First-occurrence gather positions per group. *)
    let first = Array.make ngroups (-1) in
    for i = n - 1 downto 0 do
      first.(slots.(i)) <- i
    done;
    let gkey_rel =
      {
        n = ngroups;
        cols =
          List.map
            (fun (fname, c) -> (fname, gather c (Some (Selvec.of_array first))))
            key_fields;
      }
    in
    let counts = Array.make ngroups 0 in
    for i = 0 to n - 1 do
      counts.(slots.(i)) <- counts.(slots.(i)) + 1
    done;
    (* Vectorized aggregate primitives over the slot vector: one column
       per deduplicated accumulator of the plan's registry, computed
       eagerly in registry order. *)
    if not a.P.fused then
      unsupported "vectorized unfused aggregation (the plan must fuse)";
    let reg = P.Registry.of_aggregate a in
    let compute_acc kind (sel : Ast.lambda option) : col =
      let selected =
        match sel with
        | None -> (
          (* Only Count may omit the selector over row elements. *)
          match kind with
          | Ast.Count -> CI (Array.make 0 0, Vtype.Int)
          | _ -> unsupported "vectorized aggregate without selector")
        | Some (l : Ast.lambda) -> (
          match l.Ast.params with
          | [ p ] -> veval vc ~env:[ (p, ds) ] ~n l.Ast.body
          | _ -> unsupported "vectorized aggregate selector arity")
      in
      match (kind, selected) with
            | Ast.Count, _ -> CI (Array.copy counts, Vtype.Int)
            | Ast.Sum, CI (a, Vtype.Int) ->
              let acc = Array.make ngroups 0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) + a.(i)
              done;
              CI (acc, Vtype.Int)
            | Ast.Sum, CF a ->
              let acc = Array.make ngroups 0.0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) +. a.(i)
              done;
              CF acc
            | Ast.Avg, sel_col ->
              let a = to_float_arr sel_col in
              let acc = Array.make ngroups 0.0 in
              for i = 0 to n - 1 do
                acc.(slots.(i)) <- acc.(slots.(i)) +. a.(i)
              done;
              CF (Array.init ngroups (fun g -> acc.(g) /. float_of_int counts.(g)))
            | (Ast.Min | Ast.Max), CI (a, Vtype.String) ->
              (* Dictionary codes are not order-preserving: compare the
                 decoded strings. *)
              let sign = match kind with Ast.Min -> -1 | _ -> 1 in
              let acc = Array.make ngroups 0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if
                  (not seen.(g))
                  || sign
                     * String.compare (Dict.get vc.dict a.(i)) (Dict.get vc.dict acc.(g))
                     > 0
                then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CI (acc, Vtype.String)
            | (Ast.Min | Ast.Max), CI (a, ty) ->
              let better =
                match kind with Ast.Min -> ( < ) | _ -> ( > )
              in
              let acc = Array.make ngroups 0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if (not seen.(g)) || better a.(i) acc.(g) then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CI (acc, ty)
            | (Ast.Min | Ast.Max), CF a ->
              let better =
                match kind with Ast.Min -> ( < ) | _ -> ( > )
              in
              let acc = Array.make ngroups 0.0 in
              let seen = Array.make ngroups false in
              for i = 0 to n - 1 do
                let g = slots.(i) in
                if (not seen.(g)) || better a.(i) acc.(g) then begin
                  acc.(g) <- a.(i);
                  seen.(g) <- true
                end
              done;
              CF acc
            | Ast.Sum, _ -> unsupported "vectorized Sum over non-numeric"
            | _, CE _ -> assert false (* veval materializes *)
    in
    let accs =
      Array.init (P.Registry.length reg) (fun i ->
          let s = P.Registry.spec reg i in
          compute_acc s.P.agg s.P.sel)
    in
    let on_agg kind src (sel : Ast.lambda option) =
      match src with
      | Ast.Var v when String.equal v gvar ->
        Some accs.(P.Registry.next reg kind sel)
      | _ -> None
    in
    let gkey_ds = { rel = gkey_rel; sel = None } in
    let body = P.rewrite_gkey gvar result.Ast.body in
    (* A scalar key arrives as a bare [Var __gkey]: route it through the
       single key column. *)
    let body =
      match gkey_rel.cols with
      | [ (f, _) ] when String.equal f scalar_field ->
        Ast.subst [ (P.gkey_var, Ast.Member (Ast.Var P.gkey_var, scalar_field)) ] body
      | _ -> body
    in
    let genv = [ (P.gkey_var, gkey_ds) ] in
    let eval_field e = veval vc ~env:genv ~on_agg ~n:ngroups e in
    match body with
    | Ast.Record_of fields ->
      {
        rel =
          { n = ngroups; cols = List.map (fun (fname, e) -> (fname, eval_field e)) fields };
        sel = None;
      }
    | e -> { rel = { n = ngroups; cols = [ (scalar_field, eval_field e) ] }; sel = None })
  | P.Sort (input, keys) -> sort_ds vc cat input keys
  | P.Top_k { input; keys; limit } ->
    (* No bounded-heap primitive here: sort the selection vector, then
       truncate it — the fusion still spares the boxed intermediate. *)
    take vc (sort_ds vc cat input keys) limit
  | P.Limit (input, k) -> take vc (run vc cat input) k
  | P.Offset (input, k) ->
    let ds = run vc cat input in
    let n = ds_len ds in
    let k = Value.to_int (Eval.expr vc.eval_ctx ~env:[] k) in
    let k = max 0 (min k n) in
    let sel =
      Selvec.init (n - k) (fun i ->
          match ds.sel with Some s -> Selvec.get s (i + k) | None -> i + k)
    in
    { rel = ds.rel; sel = Some sel }
  | P.Distinct input ->
    let ds = run vc cat input in
    let n = ds_len ds in
    let parts =
      List.concat_map (fun (_, c) -> key_images (gather c ds.sel)) ds.rel.cols
    in
    let slots, ngroups, _ = slots_of_keys parts n in
    let seen = Array.make ngroups false in
    let keep = ref [] in
    for i = 0 to n - 1 do
      if not seen.(slots.(i)) then begin
        seen.(slots.(i)) <- true;
        keep := i :: !keep
      end
    done;
    let sel =
      Selvec.of_array
        (Array.of_list
           (List.rev_map
              (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
              !keep))
    in
    { rel = ds.rel; sel = Some sel }

and apply_pred vc ds (pred : P.pred) =
  match probe_pred vc ds pred with
  | Some sel -> { rel = ds.rel; sel = Some sel }
  | None -> (
    let n = ds_len ds in
    match pred.P.lambda.Ast.params with
    | [ p ] ->
      let mask = ints (veval vc ~env:[ (p, ds) ] ~n pred.P.lambda.Ast.body) in
      { rel = ds.rel; sel = Some (Selvec.of_mask ?base:ds.sel mask) }
    | _ -> unsupported "vectorized filter arity")

(* Encoding-aware predicate pushdown. A single-column predicate over a
   dictionary-encoded column is evaluated once per *distinct value* (a
   K-row mini-dataset through the ordinary vectorized kernels), then the
   packed code vector is scanned against the kept-code mask; over an RLE
   column it is evaluated once per *run*, and unselected scans emit the
   kept runs as whole ranges. Either way no decoded column of length n
   is ever materialized. *)
and probe_pred vc ds (pred : P.pred) : Selvec.t option =
  let single_field (l : Ast.lambda) =
    match l.Ast.params with
    | [ p ] -> (
      let paths = Lq_expr.Paths.of_expr ~var:p l.Ast.body in
      match paths with
      | [] -> None
      | _ -> (
        match List.sort_uniq compare paths with
        | [ [ f ] ] -> Some (p, f)
        | _ -> None))
    | _ -> None
  in
  match single_field pred.P.lambda with
  | None -> None
  | Some (p, f) -> (
    match List.assoc_opt f ds.rel.cols with
    | Some (CE ({ plain = None; _ } as e)) -> (
      let body = pred.P.lambda.Ast.body in
      (* Evaluate the predicate over a K-row dataset holding only the
         distinct values, reusing the ordinary kernels. *)
      let keep_mask (values : col) k =
        let mini = { rel = { n = k; cols = [ (f, values) ] }; sel = None } in
        ints (veval vc ~env:[ (p, mini) ] ~n:k body)
      in
      match e.data with
      | Colstore.Dict_ints { codes; values } ->
        let mask = keep_mask (CI (values, e.ty)) (Array.length values) in
        let keep row = mask.(Colstore.code_get codes row) <> 0 in
        Some
          (match ds.sel with
          | Some s -> Selvec.of_pred ~base:s ~n:(Selvec.length s) keep
          | None -> Selvec.of_pred ~n:ds.rel.n keep)
      | Colstore.Dict_floats { codes; values } ->
        let mask = keep_mask (CF values) (Array.length values) in
        let keep row = mask.(Colstore.code_get codes row) <> 0 in
        Some
          (match ds.sel with
          | Some s -> Selvec.of_pred ~base:s ~n:(Selvec.length s) keep
          | None -> Selvec.of_pred ~n:ds.rel.n keep)
      | Colstore.Rle_ints { starts; values; nrows } ->
        let runs = Array.length starts in
        let mask = keep_mask (CI (values, e.ty)) runs in
        Some
          (match ds.sel with
          | Some s ->
            Selvec.of_pred ~base:s ~n:(Selvec.length s) (fun row ->
                mask.(Colstore.run_of_row starts row) <> 0)
          | None ->
            let ranges = ref [] in
            for r = runs - 1 downto 0 do
              if mask.(r) <> 0 then begin
                let hi = if r + 1 < runs then starts.(r + 1) else nrows in
                ranges := (starts.(r), hi) :: !ranges
              end
            done;
            Selvec.of_ranges !ranges)
      | Colstore.Ints _ | Colstore.Floats _ -> None)
    | _ -> None)

and take vc ds k =
  let n = ds_len ds in
  let k = Value.to_int (Eval.expr vc.eval_ctx ~env:[] k) in
  let k = max 0 (min k n) in
  let sel =
    Selvec.init k (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
  in
  { rel = ds.rel; sel = Some sel }

and sort_ds vc cat input keys =
  let ds = run vc cat input in
  let n = ds_len ds in
    let cmps =
      List.map
        (fun (k : Ast.sort_key) ->
          let sign = match k.Ast.dir with Ast.Asc -> 1 | Ast.Desc -> -1 in
          match k.Ast.by.Ast.params with
          | [ p ] -> (
            match veval vc ~env:[ (p, ds) ] ~n k.Ast.by.Ast.body with
            | CI (a, Vtype.String) ->
              fun i j ->
                sign
                * String.compare (Dict.get vc.dict a.(i)) (Dict.get vc.dict a.(j))
            | CI (a, _) -> fun i j -> sign * Int.compare a.(i) a.(j)
            | CF a -> fun i j -> sign * Float.compare a.(i) a.(j)
            | CE _ -> assert false (* veval materializes *))
          | _ -> unsupported "vectorized sort key arity")
        keys
    in
    let idx = Array.init n Fun.id in
    let cmp i j =
      let rec go = function
        | [] -> Int.compare i j
        | c :: rest ->
          let r = c i j in
          if r <> 0 then r else go rest
      in
      go cmps
    in
    Lq_exec.Quicksort.indices_by ~cmp idx;
    let base =
      Selvec.of_array
        (Array.map
           (fun i -> match ds.sel with Some s -> Selvec.get s i | None -> i)
           idx)
    in
    { rel = ds.rel; sel = Some base }

(* ---------- Boxing the final dataset ---------- *)

let box_dataset vc ds =
  let n = ds_len ds in
  let rec decode (c : col) i =
    match c with
    | CF a -> Value.Float a.(i)
    | CI (a, Vtype.Int) -> Value.Int a.(i)
    | CI (a, Vtype.Date) -> Value.Date a.(i)
    | CI (a, Vtype.Bool) -> Value.Bool (a.(i) <> 0)
    | CI (a, Vtype.String) -> Value.Str (Dict.get vc.dict a.(i))
    | CI (a, _) -> Value.Int a.(i)
    | CE e -> decode (decode_full e) i
  in
  let cols =
    List.map (fun (name, c) -> (name, gather c ds.sel)) ds.rel.cols
  in
  let scalar = match cols with [ (f, _) ] when f = scalar_field -> true | _ -> false in
  List.init n (fun i ->
      if scalar then decode (snd (List.hd cols)) i
      else
        Value.Record
          (Array.of_list (List.map (fun (name, c) -> (name, decode c i)) cols)))

(* Instrumented runs model this engine's memory traffic as its scans,
   following the plan's per-scan storage choice: column-routed scans pay
   one sequential pass over each demanded column at its *encoded* width
   (packed 1–2-byte dictionary codes, two run-indexed arrays for RLE —
   see [Colstore.trace_column]); row-routed scans (the element escapes
   whole) pay the rowstore's row-major traffic, every field of every
   row. Vector intermediates (selection vectors, primitive outputs) are
   small and cache-resident by design, so they are not traced. *)
let trace_scan_traffic (instr : Lq_catalog.Instr.t) cat plan =
  let trace = instr.Lq_catalog.Instr.trace in
  let rec go (p : P.t) =
    (match p.P.op with
    | P.Scan s when s.P.known -> (
      match s.P.storage with
      | P.Column _ ->
        let cs = Catalog.cols (Catalog.table cat s.P.table) in
        Array.iteri
          (fun i (f : Layout.field) ->
            let demanded =
              match s.P.fields with
              | None -> true
              | Some fs -> List.mem f.Layout.name fs
            in
            if demanded then Colstore.trace_column cs i trace)
          (Layout.fields (Colstore.layout cs))
      | P.Row ->
        let rs = Catalog.store (Catalog.table cat s.P.table) in
        let arity = Layout.arity (Rowstore.layout rs) in
        for row = 0 to Rowstore.length rs - 1 do
          for col = 0 to arity - 1 do
            trace (Rowstore.addr rs ~row ~col)
          done
        done)
    | _ -> ());
    List.iter go (P.children p)
  in
  go plan

let engine : Engine_intf.t =
  {
    name = "vectorwise";
    describe = "vectorized columnar stand-in: selection vectors + primitive loops";
    (* Columnar primitives work on one decoded column at a time: member
       chains deeper than a column and whole-group materialization have no
       vectorized form. *)
    caps =
      {
        Engine_intf.caps_any with
        needs_flat_sources = true;
        supports_correlated = false;
        supports_nested_paths = false;
        supports_group_no_selector = false;
      };
    prepare =
      (fun ?instr cat query ->
        (try
           List.iter
             (fun s ->
               if Catalog.mem cat s then
                 ignore (Catalog.cols (Catalog.table cat s) : Colstore.t))
             (Ast.sources_of_query query)
         with Catalog.Not_flat t -> unsupported "relation %S is not flat" t);
        let t0 = Lq_metrics.Profile.now_ms () in
        let plan = Lq_plan.Lower.lower cat query in
        let codegen_ms = Lq_metrics.Profile.now_ms () -. t0 in
        {
          Engine_intf.execute =
            (fun ~params () ->
              (match instr with
              | Some i -> trace_scan_traffic i cat plan
              | None -> ());
              let vc =
                { dict = Catalog.dict cat; params; eval_ctx = Catalog.eval_ctx cat ~params }
              in
              box_dataset vc (run vc cat plan));
          codegen_ms;
          source = None;
        });
  }
