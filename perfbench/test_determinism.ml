(* Determinism of the warm-tpch workload: two runs with the same seed
   must report identical alloc_kw, identical per-pair allocation counts
   and identical result checksums. Runs at a small scale so it stays a
   unit test; the timing loop is cut to its minimum of one round. *)

open Perfbench

let () =
  Unix.putenv "LQ_JIT_MODE" "sync";
  Common.Jit_dir.init ~out_dir:(Sys.getcwd ());
  let run () = Warm.run ~sf:0.002 ~seed:7 ~seconds:0.001 () in
  let a = run () and b = run () in
  let alloc (r : Warm.t) =
    List.find (fun m -> m.Common.name = "alloc_kw") r.Warm.outcome.Common.metrics
  in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  if a.Warm.outcome.Common.tally.Common.failed > 0 || b.Warm.outcome.Common.tally.Common.failed > 0
  then
    fail "determinism: a run failed its reference check";
  if a.Warm.allocs = [] then fail "determinism: no allocation counts measured";
  if (alloc a).Common.value <> (alloc b).Common.value then
    fail "determinism: alloc_kw differs: %.17g vs %.17g" (alloc a).Common.value (alloc b).Common.value;
  List.iter2
    (fun (pa, wa) (pb, wb) ->
      if pa <> pb || wa <> wb then fail "determinism: allocation of %s differs: %.0f vs %.0f words" pa wa wb)
    a.Warm.allocs b.Warm.allocs;
  if a.Warm.checksum <> b.Warm.checksum then fail "determinism: result checksums differ";
  Printf.printf "determinism: %d pairs, alloc_kw %.4f, checksum %s\n" (List.length a.Warm.allocs)
    (alloc a).Common.value a.Warm.checksum
