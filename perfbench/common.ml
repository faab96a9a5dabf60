(* Shared machinery of the measured benchmark: order statistics, the
   reference check, the span recorder, the JIT artifact-directory guard
   and the result line. *)

module Value = Lq_value.Value
module Ast = Lq_expr.Ast
module Trace = Lq_trace.Trace

let now_ms = Lq_metrics.Profile.now_ms

(* ------------------------------------------------------------------ *)
(* order statistics *)

let median = Lq_metrics.Stats.median

let geomean = function
  | [] -> invalid_arg "geomean: empty"
  | xs ->
    let logs = List.map (fun x -> log (Float.max x 1e-9)) xs in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* The highest percentile with at least ten samples beyond it: the
   sample at sorted index n-11. With ten or fewer samples no percentile
   qualifies and the maximum stands in (the sample count is reported next
   to every tail). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "tail: empty" else a.(if n <= 10 then n - 1 else n - 11)

let tail_percentile n = if n <= 10 then 100. else 100. *. float_of_int (n - 10) /. float_of_int n

(* The data set-up (generation, store builds, reference answers) runs
   [setup_repeats] times and keeps the last result; its time is the
   median, so one slow repetition on a shared machine does not move
   setup_s. [f] must draw its randomness from a generator it creates;
   [discard] releases each result but the last. *)
let setup_repeats = 3

let repeated_setup ?(discard = ignore) f =
  let rec go n times =
    let t0 = now_ms () in
    let r = f () in
    let times = (now_ms () -. t0) :: times in
    if n <= 1 then (r, median times)
    else begin
      discard r;
      go (n - 1) times
    end
  in
  go setup_repeats []

(* ------------------------------------------------------------------ *)
(* the reference check *)

(* Relative float tolerance of the differential test suites: parallel
   partial-sum merges and reordered folds legitimately differ from the
   interpreter in the last bits. *)
let rec value_close a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
    x = y
    || Float.abs (x -. y) <= 1e-9 *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | Value.Record fa, Value.Record fb ->
    Array.length fa = Array.length fb
    && Array.for_all2 (fun (na, va) (nb, vb) -> String.equal na nb && value_close va vb) fa fb
  | Value.List xa, Value.List xb ->
    List.length xa = List.length xb && List.for_all2 value_close xa xb
  | _ -> Value.equal a b

let rows_close expected got =
  List.length expected = List.length got && List.for_all2 value_close expected got

(* Whether the query's outermost operators pin the result order; every
   other result is compared as a multiset. *)
let rec fixes_order = function
  | Ast.Order_by _ -> true
  | Ast.Take (q, _) | Ast.Skip (q, _) | Ast.Select (q, _) | Ast.Where (q, _) -> fixes_order q
  | Ast.Source _ | Ast.Join _ | Ast.Group_by _ | Ast.Distinct _ -> false

let matches q ~expected got =
  if fixes_order q then rows_close expected got
  else
    let sort rows = List.sort Value.compare rows in
    rows_close (sort expected) (sort got)

let checksum rows = Digest.to_hex (Digest.string (Marshal.to_string rows [ Marshal.No_sharing ]))

(* ------------------------------------------------------------------ *)
(* operation accounting: every attempted operation matched the
   reference, was refused by the service's admission control, or counts
   as failed, with its first causes kept for the report *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable refused : int;
  mutable causes : string list;
}

let tally () = { attempted = 0; failed = 0; refused = 0; causes = [] }

let note_ok t = t.attempted <- t.attempted + 1

let note_refused t =
  t.attempted <- t.attempted + 1;
  t.refused <- t.refused + 1

let note_failed t cause =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  if List.length t.causes < 8 then t.causes <- cause :: t.causes

(* What a workload run hands back: its metrics, its operation tally and
   its validity guards (each a condition and what it requires). *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
}

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  metrics : metric list;
  tally : tally;
  valid : (bool * string) list;
}

(* ------------------------------------------------------------------ *)
(* span recorder *)

(* Spans recorded by the benchmark around each call into a layer of the
   program, plus the program's own trace spans imported under them. Kept
   in memory on the main Domain and written out when the run ends. *)
module Spans = struct
  type span = {
    id : int;
    parent : int;
    layer : string;
    name : string;
    phase : string;
    start_ms : float;
    mutable stop_ms : float;
  }

  let on = ref false

  (* ["setup"] or ["timed"]: the layer breakdown covers timed spans only. *)
  let phase = ref "setup"
  let recorded : span list ref = ref []
  let count = ref 0
  let next_id = ref 1
  let stack : int list ref = ref []
  let cap = 400_000

  let parent () = match !stack with p :: _ -> p | [] -> 0

  let push ~parent ~layer ~name ~start_ms ~stop_ms =
    let s = { id = !next_id; parent; layer; name; phase = !phase; start_ms; stop_ms } in
    incr next_id;
    if !count < cap then begin
      incr count;
      recorded := s :: !recorded
    end;
    s

  let with_span layer name f =
    if not !on then f ()
    else begin
      let s = push ~parent:(parent ()) ~layer ~name ~start_ms:(now_ms ()) ~stop_ms:(-1.) in
      stack := s.id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          stack := List.tl !stack;
          s.stop_ms <- now_ms ())
        f
    end

  (* The layer a program span belongs to, by the repo module that
     records it. *)
  let layer_of_kind (s : Trace.span) =
    match s.Trace.kind with
    | Trace.Request | Trace.Queue | Trace.Retry_attempt | Trace.Fallback_hop
    | Trace.Breaker_event ->
      "service"
    | Trace.Cache_lookup ->
      if String.equal s.Trace.name "result-cache" then "result_cache" else "query_cache"
    | Trace.Optimize -> "optimizer"
    | Trace.Lower -> "plan"
    | Trace.Codegen | Trace.Execute | Trace.Staging | Trace.Native_op | Trace.Return_result
    | Trace.Partition | Trace.Morsel ->
      "engines"
    | Trace.Jit_compile | Trace.Jit_validate -> "jit"

  (* Imports a finished program trace under the innermost open span. The
     root Request span is dropped when [~root:false]: the benchmark's own
     span around the call already covers it. *)
  let import ?(root = false) tr =
    if !on then begin
      let base = parent () in
      let ids = Hashtbl.create 16 in
      List.iter
        (fun (s : Trace.span) ->
          if s.Trace.parent = 0 && not root then Hashtbl.replace ids s.Trace.id base
          else begin
            let parent =
              match Hashtbl.find_opt ids s.Trace.parent with Some p -> p | None -> base
            in
            let dur = Float.max 0. s.Trace.dur_ms in
            let span =
              push ~parent ~layer:(layer_of_kind s) ~name:s.Trace.name ~start_ms:s.Trace.start_ms
                ~stop_ms:(s.Trace.start_ms +. dur)
            in
            Hashtbl.replace ids s.Trace.id span.id
          end)
        (Trace.spans tr)
    end

  (* Runs [f] under a fresh program trace whose spans are imported under
     the current span. *)
  let traced f =
    if not !on then f ()
    else begin
      let tr = Trace.start () in
      match Trace.with_trace tr f with
      | v ->
        Trace.finish tr;
        import tr;
        v
      | exception e ->
        Trace.finish tr;
        import tr;
        raise e
    end

  let all () = List.rev !recorded

  (* Self time per layer: a span's duration minus the union of its
     children's intervals. *)
  let timed () = List.filter (fun s -> String.equal s.phase "timed") (all ())

  let self_ms () =
    let spans = timed () in
    let children = Hashtbl.create 1024 in
    List.iter (fun s -> Hashtbl.add children s.parent s) spans;
    let totals = Hashtbl.create 16 in
    List.iter
      (fun s ->
        if s.stop_ms >= s.start_ms then begin
          let kids =
            Hashtbl.find_all children s.id
            |> List.filter_map (fun c ->
                   let a = Float.max s.start_ms c.start_ms and b = Float.min s.stop_ms c.stop_ms in
                   if b > a then Some (a, b) else None)
            |> List.sort compare
          in
          let covered, _ =
            List.fold_left
              (fun (acc, hi) (a, b) ->
                let a = Float.max a hi in
                if b > a then (acc +. (b -. a), b) else (acc, hi))
              (0., neg_infinity) kids
          in
          let self = Float.max 0. (s.stop_ms -. s.start_ms -. covered) in
          let prev = Option.value ~default:0. (Hashtbl.find_opt totals s.layer) in
          Hashtbl.replace totals s.layer (prev +. self)
        end)
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [] |> List.sort compare

  (* Timed operations (root spans) and the total span time of one layer. *)
  let roots () = List.length (List.filter (fun s -> s.parent = 0) (timed ()))

  let sum_ms ~layer ~prefix =
    List.fold_left
      (fun (ms, n) s ->
        if String.equal s.layer layer && String.starts_with ~prefix s.name then
          (ms +. Float.max 0. (s.stop_ms -. s.start_ms), n + 1)
        else (ms, n))
      (0., 0) (timed ())

  let layer_ms layer =
    List.fold_left
      (fun acc s ->
        if String.equal s.layer layer then acc +. Float.max 0. (s.stop_ms -. s.start_ms) else acc)
      0. (timed ())

  let write path =
    let oc = open_out path in
    output_string oc "[\n";
    List.iteri
      (fun i s ->
        Printf.fprintf oc
          "%s{\"id\":%d,\"parent\":%d,\"layer\":%S,\"name\":%S,\"phase\":%S,\"start_ms\":%.4f,\"dur_ms\":%.4f}\n"
          (if i = 0 then "" else ",")
          s.id s.parent s.layer s.name s.phase s.start_ms
          (Float.max 0. (s.stop_ms -. s.start_ms)))
      (all ());
    output_string oc "]\n";
    close_out oc
end

(* The layers of the self-time breakdown, named after the repo modules. *)
let layers =
  [
    "tpch"; "storage"; "optimizer"; "plan"; "provider"; "query_cache"; "result_cache"; "engines";
    "jit"; "service";
  ]

(* ------------------------------------------------------------------ *)
(* the result line *)

(* JSON has no infinity or NaN. A run whose metrics are not all finite
   and non-negative is invalid (bench.ml); its line still parses, with an
   infinity as the largest float and NaN as 0. *)
let json_number v =
  if Float.is_nan v then "0"
  else if not (Float.is_finite v) then Printf.sprintf "%.17g" (Float.copy_sign Float.max_float v)
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* private JIT artifact directory *)

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh artifact directory for this process, so a "cold" compile can
   never be a disk hit left behind by an earlier run, a test or another
   harness. [reset] drops the JIT's in-memory state and points it at a
   new directory: the next compile of any shape is cold again. *)
module Jit_dir = struct
  let root = ref ""
  let generation = ref 0
  let current = ref ""

  let fresh () =
    incr generation;
    let dir = Filename.concat !root (Printf.sprintf "gen%d" !generation) in
    Sys.mkdir dir 0o700;
    current := dir;
    Unix.putenv "LQ_JIT_CACHE_DIR" dir

  let init ~out_dir =
    let dir = Filename.concat out_dir (Printf.sprintf "jit-%d" (Unix.getpid ())) in
    remove_tree dir;
    Sys.mkdir dir 0o700;
    root := dir;
    fresh ();
    at_exit (fun () -> remove_tree dir)

  let reset () =
    let old = !current in
    fresh ();
    Lq_jit.Backend.reset_for_tests ();
    remove_tree old
end

let jit_count name = Lq_metrics.Counters.count Lq_jit.Backend.counters ("service/jit/" ^ name)
let jit_ms name = Lq_metrics.Counters.value Lq_jit.Backend.counters ("service/jit/" ^ name)
