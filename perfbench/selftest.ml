(* Determinism self-check of the benchmark.

   Runs a short, fixed-length traced run of every workload twice with one
   seed and once with another, each in a fresh process, and compares the
   deterministic counts the benchmark prints (TCAM ops, moves, modelled
   hardware time, minor words, journal bytes, lookup hits).  The two
   same-seed runs must agree bit for bit; the other seed must differ.

   Usage: selftest.exe BENCH_EXE *)

let ops = 640

let counts bench ~workload ~seed =
  let args =
    [| bench; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "1";
       "--trace"; "1"; "--ops"; string_of_int ops; "--out"; "selftest-out" |]
  in
  let ic = Unix.open_process_args_in bench args in
  let rec scan found =
    match input_line ic with
    | line when String.starts_with ~prefix:"counts " line -> scan (Some line)
    | _ -> scan found
    | exception End_of_file -> found
  in
  let found = scan None in
  match (Unix.close_process_in ic, found) with
  | Unix.WEXITED 0, Some line -> line
  | _, None -> failwith (Printf.sprintf "%s seed %d: no counts line" workload seed)
  | _, Some _ -> failwith (Printf.sprintf "%s seed %d: benchmark run failed" workload seed)

let () =
  if Array.length Sys.argv < 2 then failwith "usage: selftest.exe BENCH_EXE";
  let bench =
    if Filename.is_relative Sys.argv.(1) then Filename.concat (Sys.getcwd ()) Sys.argv.(1)
    else Sys.argv.(1)
  in
  let failures = ref 0 in
  List.iter
    (fun (spec : Inputs.spec) ->
      let workload = spec.Inputs.name in
      let a = counts bench ~workload ~seed:7 in
      let b = counts bench ~workload ~seed:7 in
      let c = counts bench ~workload ~seed:8 in
      if a <> b then begin
        incr failures;
        Printf.printf "NOT DETERMINISTIC %s:\n  %s\n  %s\n" workload a b
      end;
      if a = c then begin
        incr failures;
        Printf.printf "SEED IGNORED %s: seeds 7 and 8 both give\n  %s\n" workload a
      end)
    Inputs.specs;
  if !failures > 0 then exit 1;
  Printf.printf "perfbench self-test: %d workloads deterministic per seed\n"
    (List.length Inputs.specs)
