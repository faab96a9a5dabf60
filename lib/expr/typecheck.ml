open Lq_value

exception Type_error of string

let error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type tenv = {
  source_type : string -> Vtype.t;
  param_type : string -> Vtype.t;
}

let tenv ?(source_type = fun name -> error "unknown source %S" name)
    ?(param_type = fun name -> error "unknown parameter %S" name) () =
  { source_type; param_type }

let numeric_join a b =
  match (a, b) with
  | Vtype.Int, Vtype.Int -> Vtype.Int
  | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> Vtype.Float
  | _ -> error "arithmetic on non-numeric types %a and %a" Vtype.pp a Vtype.pp b

let comparable a b =
  match (a, b) with
  | (Vtype.Int | Vtype.Float), (Vtype.Int | Vtype.Float) -> ()
  | _ ->
    if not (Vtype.equal a b) then
      error "comparison between incompatible types %a and %a" Vtype.pp a Vtype.pp b

let signature (f : Ast.func) =
  let str = Vtype.String in
  match f with
  | Ast.Starts_with | Ast.Ends_with | Ast.Contains | Ast.Like ->
    Some ([ str; str ], Vtype.Bool)
  | Ast.Lower | Ast.Upper -> Some ([ str ], str)
  | Ast.Length -> Some ([ str ], Vtype.Int)
  | Ast.Year -> Some ([ Vtype.Date ], Vtype.Int)
  | Ast.Add_days -> Some ([ Vtype.Date; Vtype.Int ], Vtype.Date)
  | Ast.Abs -> None

let call_result (f : Ast.func) tys =
  match (signature f, tys) with
  | None, [ ((Vtype.Int | Vtype.Float) as ty) ] -> ty
  | None, _ -> error "%s expects one numeric argument" (Pretty.func_name f)
  | Some (expected, result), _ ->
    if
      List.length tys <> List.length expected
      || not (List.for_all2 Vtype.equal tys expected)
    then
      error "%s expects (%s), got (%s)" (Pretty.func_name f)
        (String.concat ", " (List.map Vtype.to_string expected))
        (String.concat ", " (List.map Vtype.to_string tys));
    result

let rec expr_type te ~env (e : Ast.expr) : Vtype.t =
  match e with
  | Ast.Const v -> (
    match Value.type_of v with
    | Some ty -> ty
    | None -> error "constant %s has no inferable type" (Value.to_string v))
  | Ast.Param p -> te.param_type p
  | Ast.Var v -> (
    match List.assoc_opt v env with
    | Some ty -> ty
    | None -> error "unbound variable %S" v)
  | Ast.Member (e, name) -> (
    let ty = expr_type te ~env e in
    match Vtype.field ty name with
    | Some fty -> fty
    | None -> error "type %a has no member %S" Vtype.pp ty name)
  | Ast.Unop (Ast.Neg, e) -> (
    match expr_type te ~env e with
    | (Vtype.Int | Vtype.Float) as ty -> ty
    | ty -> error "negation of non-numeric %a" Vtype.pp ty)
  | Ast.Unop (Ast.Not, e) -> (
    match expr_type te ~env e with
    | Vtype.Bool -> Vtype.Bool
    | ty -> error "logical not of non-boolean %a" Vtype.pp ty)
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod), a, b) ->
    numeric_join (expr_type te ~env a) (expr_type te ~env b)
  | Ast.Binop ((Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge), a, b) ->
    comparable (expr_type te ~env a) (expr_type te ~env b);
    Vtype.Bool
  | Ast.Binop ((Ast.And | Ast.Or), a, b) -> (
    match (expr_type te ~env a, expr_type te ~env b) with
    | Vtype.Bool, Vtype.Bool -> Vtype.Bool
    | ta, tb -> error "boolean operator on %a and %a" Vtype.pp ta Vtype.pp tb)
  | Ast.If (c, t, e) -> (
    match expr_type te ~env c with
    | Vtype.Bool ->
      let tt = expr_type te ~env t and et = expr_type te ~env e in
      if Vtype.equal tt et then tt
      else error "if branches have types %a and %a" Vtype.pp tt Vtype.pp et
    | ty -> error "if condition has type %a" Vtype.pp ty)
  | Ast.Call (f, args) -> call_result f (List.map (expr_type te ~env) args)
  | Ast.Agg (kind, src, sel) -> (
    let elem_ty =
      match expr_type te ~env src with
      | Vtype.List ty -> ty
      | Vtype.Record fields as ty -> (
        match List.assoc_opt Ast.group_items_field fields with
        | Some (Vtype.List ty) -> ty
        | Some _ | None -> error "aggregate over non-enumerable %a" Vtype.pp ty)
      | ty -> error "aggregate over non-enumerable %a" Vtype.pp ty
    in
    let selected_ty =
      match sel with
      | None -> elem_ty
      | Some l -> (
        match l.params with
        | [ p ] -> expr_type te ~env:((p, elem_ty) :: env) l.body
        | _ -> error "aggregate selector must take exactly one parameter")
    in
    match kind with
    | Ast.Count -> Vtype.Int
    | Ast.Avg ->
      if Vtype.is_numeric selected_ty then Vtype.Float
      else error "Avg over non-numeric %a" Vtype.pp selected_ty
    | Ast.Sum ->
      if Vtype.is_numeric selected_ty then selected_ty
      else error "Sum over non-numeric %a" Vtype.pp selected_ty
    | Ast.Min | Ast.Max ->
      if Vtype.is_scalar selected_ty then selected_ty
      else error "Min/Max over non-scalar %a" Vtype.pp selected_ty)
  | Ast.Subquery q -> Vtype.List (query_type te ~env q)
  | Ast.Record_of fields ->
    Vtype.Record (List.map (fun (n, e) -> (n, expr_type te ~env e)) fields)

and apply_type te ~env (l : Ast.lambda) arg_tys =
  if List.length l.params <> List.length arg_tys then
    error "lambda arity mismatch: %d parameters, %d arguments"
      (List.length l.params) (List.length arg_tys);
  expr_type te ~env:(List.rev_append (List.combine l.params arg_tys) env) l.body

and query_type te ~env (q : Ast.query) : Vtype.t =
  match q with
  | Ast.Source name -> te.source_type name
  | Ast.Where (src, pred) ->
    let elem = query_type te ~env src in
    (match apply_type te ~env pred [ elem ] with
    | Vtype.Bool -> elem
    | ty -> error "Where predicate has type %a" Vtype.pp ty)
  | Ast.Select (src, sel) ->
    let elem = query_type te ~env src in
    apply_type te ~env sel [ elem ]
  | Ast.Join { left; right; left_key; right_key; result } ->
    let lt = query_type te ~env left and rt = query_type te ~env right in
    let lk = apply_type te ~env left_key [ lt ]
    and rk = apply_type te ~env right_key [ rt ] in
    if not (Vtype.equal lk rk) then
      error "join keys have types %a and %a" Vtype.pp lk Vtype.pp rk;
    apply_type te ~env result [ lt; rt ]
  | Ast.Group_by { group_source; key; group_result } -> (
    let elem = query_type te ~env group_source in
    let key_ty = apply_type te ~env key [ elem ] in
    let group_ty =
      Vtype.Record
        [ (Ast.group_key_field, key_ty); (Ast.group_items_field, Vtype.List elem) ]
    in
    match group_result with
    | None -> group_ty
    | Some l -> apply_type te ~env l [ group_ty ])
  | Ast.Order_by (src, keys) ->
    let elem = query_type te ~env src in
    List.iter
      (fun (k : Ast.sort_key) ->
        let ty = apply_type te ~env k.by [ elem ] in
        if not (Vtype.is_scalar ty) then
          error "OrderBy key has non-scalar type %a" Vtype.pp ty)
      keys;
    elem
  | Ast.Take (src, n) | Ast.Skip (src, n) -> (
    match expr_type te ~env n with
    | Vtype.Int -> query_type te ~env src
    | ty -> error "Take/Skip count has type %a" Vtype.pp ty)
  | Ast.Distinct src -> query_type te ~env src

let expr_type te ~env e = expr_type te ~env e
let query_type te ~env q = query_type te ~env q

let element_schema te q =
  match query_type te ~env:[] q with
  | Vtype.Record fields -> Schema.make fields
  | ty -> error "query element type %a is not a record" Vtype.pp ty
