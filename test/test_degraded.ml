(* Tests for the degraded-hardware conformance oracle: a seeded 10%-dead
   stuck bank on one shard, every scheduler driven through discovery /
   hole-stepping / overflow diverts / the probe-drill heal, certified
   against a never-faulted twin — sequentially and under the parallel
   drain path. *)

open Fastrule

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_degraded_oracle_clean () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:31 ~initial:30 ~pool:60
      ~capacity:240 ~events:80 ()
  in
  let r = Oracle.run_degraded ~probes:6 ~batch:4 ~shards:3 ~fault_shard:0 trace in
  if not (Oracle.degraded_clean r) then
    Alcotest.failf "degraded oracle diverged:@.%a" Oracle.pp_degraded_report r;
  check "stuck bank is non-empty" true (r.Oracle.dg_seeded_dead > 0);
  List.iter
    (fun c ->
      let name = c.Oracle.degraded_scheduler in
      check (name ^ ": discovery condemned rows") true (c.Oracle.dg_dead_max > 0);
      check_int (name ^ ": nothing shed") 0 c.Oracle.dg_shed;
      check (name ^ ": the heal revived the bank") true
        (c.Oracle.dg_recovered > 0);
      check (name ^ ": converged in bounded flushes") true
        (c.Oracle.dg_heal_flushes > 0))
    r.Oracle.degraded_columns

let test_degraded_validation () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:33 ~initial:10 ~pool:20
      ~capacity:120 ~events:10 ()
  in
  let rejects f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  check "batch must be positive" true
    (rejects (fun () -> Oracle.run_degraded ~batch:0 trace));
  check "needs a shard to divert to" true
    (rejects (fun () -> Oracle.run_degraded ~shards:1 trace));
  check "fault shard must exist" true
    (rejects (fun () -> Oracle.run_degraded ~shards:3 ~fault_shard:3 trace));
  check "dead_frac below 1" true
    (rejects (fun () -> Oracle.run_degraded ~dead_frac:1.0 trace));
  check "dead_frac above 0" true
    (rejects (fun () -> Oracle.run_degraded ~dead_frac:0.0 trace))

(* The drill must be deterministic across drain parallelism: the probe
   epilogue runs after the join barrier, so one domain and four must
   produce identical columns. *)
let test_degraded_domains_agree () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed:32 ~initial:24 ~pool:48
      ~capacity:200 ~events:60 ()
  in
  let fingerprint r =
    List.map
      (fun c ->
        ( c.Oracle.degraded_scheduler,
          c.Oracle.dg_applied,
          c.Oracle.dg_shed,
          c.Oracle.dg_dead_max,
          c.Oracle.dg_recovered,
          c.Oracle.dg_heal_flushes ))
      r.Oracle.degraded_columns
  in
  let r1 = Oracle.run_degraded ~probes:4 ~domains:1 trace in
  let r4 = Oracle.run_degraded ~probes:4 ~domains:4 trace in
  check "sequential run clean" true (Oracle.degraded_clean r1);
  check "parallel run clean" true (Oracle.degraded_clean r4);
  check "columns agree across domain counts" true
    (fingerprint r1 = fingerprint r4)

(* Random seeds and dead fractions: the certification is not tuned to one
   lucky bank.  QCHECK_LONG=1 runs about 6,000 banks — the sweep leg of
   the CI degraded-tcam job. *)
let prop_degraded_random_banks =
  QCheck.Test.make ~name:"degraded oracle stays clean over random banks"
    ~count:4 ~long_factor:1500
    (QCheck.make
       ~print:(fun (seed, pct) -> Printf.sprintf "seed=%d dead=%d%%" seed pct)
       QCheck.Gen.(pair (int_bound 1000) (int_range 5 15)))
    (fun (seed, pct) ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed ~initial:20 ~pool:40
          ~capacity:160 ~events:40 ()
      in
      let r =
        Oracle.run_degraded ~probes:4 ~dead_frac:(float_of_int pct /. 100.0)
          trace
      in
      Oracle.degraded_clean r)

(* A degraded bundle replays the bank it was captured on; one written
   before [bundle.meta] recorded the fraction replays the default 10%. *)
let test_bundle_dead_frac () =
  let dir = Journal.fresh_dir ~prefix:"fr-test-degraded-bundle" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let trace =
        Trace.generate ~kind:Dataset.ACL4 ~seed:478 ~initial:20 ~pool:40
          ~capacity:160 ~events:40 ()
      in
      let info =
        {
          Bundle.mode = "degraded";
          at = 40;
          mid_drain = false;
          batch = 4;
          shards = 3;
          fault_shard = 0;
          slow_ms = 0.0;
          dead_frac = 0.09;
        }
      in
      ignore (Bundle.write ~dir info ~trace ~journal:None);
      let load () =
        match Bundle.load dir with
        | Ok (i, _) -> i.Bundle.dead_frac
        | Error e -> Alcotest.failf "load: %s" e
      in
      check "recorded fraction round-trips" true (load () = 0.09);
      let meta = Filename.concat dir "bundle.meta" in
      let lines =
        In_channel.with_open_text meta In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> not (String.starts_with ~prefix:"dead_frac" l))
      in
      Out_channel.with_open_text meta (fun oc ->
          Out_channel.output_string oc (String.concat "\n" lines));
      check "a meta without the field falls back to 10%" true (load () = 0.10))

(* --- dead-row Set_action relocation is failure-atomic ------------------ *)

(* A Set_action on a condemned row relocates through Remove + Add.  Here
   the rule's own row is stuck and so is every free row but one spare, so
   the re-Add can hit a second stuck row.  Whatever happens, the rule
   stays installed: with the new action once the mod reports applied, with
   the old one while it reports an error — and a "fault: " error is
   retryable until it applies. *)
let test_relocation_keeps_rule () =
  let mk_rule id =
    Rule.make ~id
      ~field:
        (Header.pack
           {
             Header.wildcard with
             Header.dst_ip =
               Ternary.prefix_of_int64 ~width:32 ~plen:24
                 (Int64.of_int (0x0A000000 + (id * 256)));
           })
      ~action:(Rule.Forward 1) ~priority:24
  in
  List.iter
    (fun kind ->
      List.iter
        (fun spare_at ->
          let name =
            Printf.sprintf "%s, spare row %s" (Firmware.algo_kind_name kind)
              spare_at
          in
          let agent =
            Agent.of_rules ~kind ~capacity:16
              (Array.init 6 (fun i -> mk_rule (100 + i)))
          in
          let tcam = Agent.tcam agent in
          let addr = Option.get (Tcam.addr_of tcam 102) in
          let free = List.filter (Tcam.is_free tcam) (List.init 16 Fun.id) in
          let spare =
            if spare_at = "lowest" then List.hd free
            else List.nth free (List.length free - 1)
          in
          let stuck = addr :: List.filter (fun a -> a <> spare) free in
          Agent.set_fault agent (Some (Fault.create ~stuck ~seed:3 ()));
          ignore (Tcam.note_write_failure tcam ~addr);
          let set = Agent.Set_action { id = 102; action = Rule.Drop } in
          let rec settle attempts =
            let result = Agent.apply agent set in
            let action =
              match Agent.rule agent 102 with
              | Some r -> r.Rule.action
              | None -> Alcotest.failf "%s: rule 102 lost" name
            in
            match result with
            | Ok () ->
                check (name ^ ": applied carries the new action") true
                  (action = Rule.Drop)
            | Error e ->
                check (name ^ ": failed keeps the old action") true
                  (action = Rule.Forward 1);
                if attempts = 0 || not (String.starts_with ~prefix:"fault: " e)
                then Alcotest.failf "%s: never applied: %s" name e;
                settle (attempts - 1)
          in
          settle 16;
          check (name ^ ": off the dead row") false
            (Tcam.is_dead tcam (Option.get (Tcam.addr_of tcam 102)));
          check (name ^ ": consistent") true
            (Agent.verify_consistent agent = Ok ()))
        [ "lowest"; "highest" ])
    (Firmware.standard_algos Store.Bit_backend)

(* Every (seed, dead%) on which the property's shape lost a rule through
   that relocation before it became failure-atomic — a sweep of seeds
   0-1000 at odd dead fractions 5-15%.  ACL4 seed 478 at 9% dead is the
   first report: rule 0 vanished in the flush carrying [set-action 0]. *)
let rule_loss_cases =
  [ (478, 9); (25, 7); (25, 9); (25, 11); (25, 13); (25, 15); (84, 13);
    (84, 15); (93, 5); (93, 7); (93, 9); (93, 11); (93, 13); (93, 15);
    (157, 15); (201, 13); (201, 15); (206, 11); (206, 13); (206, 15);
    (254, 13); (254, 15); (269, 15); (295, 11); (295, 13); (295, 15);
    (301, 9); (301, 11); (301, 13); (301, 15); (305, 13); (305, 15);
    (309, 15); (342, 15); (389, 13); (389, 15); (417, 13); (417, 15);
    (420, 13); (420, 15); (478, 7); (478, 11); (478, 15); (516, 5);
    (592, 15); (630, 13); (630, 15); (639, 13); (639, 15); (640, 15);
    (641, 9); (641, 11); (641, 13); (641, 15); (647, 11); (647, 13);
    (647, 15); (677, 11); (677, 13); (677, 15); (698, 15); (703, 7);
    (703, 9); (703, 11); (703, 13); (703, 15); (743, 5); (743, 7); (743, 9);
    (743, 11); (743, 13); (743, 15); (756, 9); (756, 11); (756, 13);
    (756, 15); (833, 5); (833, 7); (833, 9); (833, 11); (833, 13);
    (833, 15); (863, 9); (863, 11); (863, 13); (863, 15); (865, 5);
    (865, 7); (865, 9); (865, 11); (865, 13); (865, 15); (916, 11);
    (930, 9); (935, 15); (963, 15); (987, 13); (987, 15); (994, 11);
    (994, 13); (994, 15); (997, 9); (997, 11); (997, 13) ]

let test_rule_loss_case (seed, pct) () =
  let trace =
    Trace.generate ~kind:Dataset.ACL4 ~seed ~initial:20 ~pool:40 ~capacity:160
      ~events:40 ()
  in
  let r =
    Oracle.run_degraded ~probes:4 ~dead_frac:(float_of_int pct /. 100.0) trace
  in
  if not (Oracle.degraded_clean r) then
    Alcotest.failf "seed %d at %d%% dead diverged:@.%a" seed pct
      Oracle.pp_degraded_report r

let suite =
  [
    ( "degraded",
      [
        Alcotest.test_case "oracle clean at 10% dead" `Quick
          test_degraded_oracle_clean;
        Alcotest.test_case "parameter validation" `Quick test_degraded_validation;
        Alcotest.test_case "domains 1 and 4 agree" `Quick
          test_degraded_domains_agree;
        Alcotest.test_case "dead-row relocation keeps the rule" `Quick
          test_relocation_keeps_rule;
        Alcotest.test_case "bundle records the dead fraction" `Quick
          test_bundle_dead_frac;
      ]
      @ List.map
          (fun (seed, pct) ->
            Alcotest.test_case
              (Printf.sprintf "no rule loss: seed %d at %d%% dead" seed pct)
              `Quick
              (test_rule_loss_case (seed, pct)))
          rule_loss_cases
      @ List.map QCheck_alcotest.to_alcotest [ prop_degraded_random_banks ] );
  ]
