(* One run of one workload of the measured benchmark:

     bench.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>

   Human-readable detail goes to stdout first; the last line is the
   result object. With --trace 0 it carries the end-to-end metrics; with
   --trace 1 the per-layer ones, from a run that records spans. *)

open Perfbench
open Common

let usage () =
  prerr_endline
    "usage: bench.exe --workload <warm-tpch|cold-shapes|service-mix> --seed <n> --seconds <s> --trace <0|1>";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  (* Span traces and the private JIT artifact directories go here. *)
  let out = "perfbench/out" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string n; parse rest
    | "--seconds" :: n :: rest -> seconds := float_of_string n; parse rest
    | "--trace" :: n :: rest -> trace := int_of_string n; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  Jit_dir.init ~out_dir:out;
  Spans.on := !trace = 1;
  (* warm-tpch and cold-shapes compile inside prepare (LQ_JIT_MODE=sync),
     so promotion is part of set-up and a cold compile is one call;
     service-mix keeps the default async tiering. *)
  let { metrics; tally; valid } =
    match !workload with
    | "warm-tpch" ->
      Unix.putenv "LQ_JIT_MODE" "sync";
      (Warm.run ~seed:!seed ~seconds:!seconds ()).Warm.outcome
    | "cold-shapes" ->
      Unix.putenv "LQ_JIT_MODE" "sync";
      Cold.run ~seed:!seed ~seconds:!seconds
    | "service-mix" -> Mix.run ~seed:!seed ~seconds:!seconds
    | _ -> usage ()
  in
  let spans_metrics =
    if not !Spans.on then []
    else begin
      let roots = float_of_int (max 1 (Spans.roots ())) in
      let self = Spans.self_ms () in
      let total = List.fold_left (fun acc (_, ms) -> acc +. ms) 0. self in
      [
        metric "optimize_ms" "ms" (Spans.layer_ms "optimizer" /. roots);
        metric "lower_ms" "ms" (Spans.layer_ms "plan" /. roots);
      ]
      @ List.map
          (fun l ->
            let ms = Option.value ~default:0. (List.assoc_opt l self) in
            metric ("self_pct." ^ l) "%" (if total > 0. then 100. *. ms /. total else 0.))
          layers
    end
  in
  let error_rate =
    if tally.attempted = 0 then 0.
    else float_of_int (tally.failed + tally.refused) /. float_of_int tally.attempted
  in
  let all = metrics @ spans_metrics @ [ metric "error_rate" "ratio" error_rate ] in
  let wanted = if !trace = 1 then Spec.per_layer else Spec.end_to_end in
  let printed =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun m -> String.equal m.name name) all with
        | Some m -> m
        | None -> metric name unit_ 0.)
      wanted
  in
  List.iter (fun m -> Printf.printf "%-28s %14.4f %s\n" m.name m.value m.unit_) all;
  List.iter (fun c -> Printf.printf "failure: %s\n" c) (List.rev tally.causes);
  if tally.refused > 0 then Printf.printf "refused at admission: %d\n" tally.refused;
  let valid =
    List.map
      (fun m ->
        (Float.is_finite m.value && m.value >= 0., Printf.sprintf "%s = %g must be finite and >= 0" m.name m.value))
      printed
    @ valid
  in
  let guards_ok = List.for_all fst valid in
  List.iter (fun (ok, what) -> if not ok then Printf.printf "invalid run: %s\n" what) valid;
  if !Spans.on then
    Spans.write (Filename.concat out (Printf.sprintf "trace-%s-%d.json" !workload !seed));
  print_endline
    (result_line ~correct:(tally.failed = 0 && guards_ok) ~attempted:(max 1 tally.attempted)
       ~failed:tally.failed printed);
  if not guards_ok then exit 1
