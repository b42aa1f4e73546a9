(* Transparency of [Timed.Make]: a deployment of the wrapped protocol must
   be indistinguishable from one of the protocol itself — same event
   count, same per-process delivery sequences, same checker verdicts, same
   explored schedule space — with the layer clocks on or off. Small
   instances of the benchmark's three simulator workloads. *)

open Harness

let with_tracing on f =
  Timed.reset ();
  Timed.tracing := on;
  Fun.protect ~finally:(fun () -> Timed.tracing := false) f

(* What must not change, of one DES run. *)
let observable (r : Run_result.t) =
  ( r.Run_result.events_executed,
    List.map
      (fun p -> List.map (fun (m : Amcast.Msg.t) -> m.id) (Run_result.sequence_of r p))
      (Net.Topology.all_pids r.Run_result.topology),
    Checker.check_all ~check_quiescence:true r,
    r.Run_result.inter_group_msgs + r.Run_result.intra_group_msgs )

let run_both (module P : Amcast.Protocol.S) ~config ~latency ?(faults = []) topology
    workload =
  let run (module Q : Amcast.Protocol.S) =
    let module R = Runner.Make (Q) in
    (* the crash set is read from the trace *)
    R.run ~seed:5 ~latency ~config ~record_trace:(faults <> []) ~faults topology
      workload
  in
  let plain = run (module P) in
  let wrapped on = with_tracing on (fun () -> run (module Timed.Make (P))) in
  (plain, wrapped false, wrapped true)

let check_same name (plain, untraced, traced) =
  let expected = observable plain in
  let events, _, verdict, _ = expected in
  Alcotest.(check bool) (name ^ ": run did something") true (events > 0);
  Alcotest.(check (list string)) (name ^ ": clean run") [] verdict;
  Alcotest.(check bool) (name ^ ": untraced identical") true (observable untraced = expected);
  Alcotest.(check bool) (name ^ ": traced identical") true (observable traced = expected)

let sim_a1 () =
  let topology = Net.Topology.symmetric ~groups:4 ~per_group:3 in
  let workload =
    Workload.generate ~rng:(Des.Rng.create 3) ~topology ~n:300
      ~dest:(Workload.Random_groups 3)
      ~arrival:(`Poisson (Des.Sim_time.of_ms 5))
      ()
  in
  let runs =
    run_both (module Amcast.A1) ~config:Amcast.Protocol.Config.throughput
      ~latency:Net.Latency.wan_default topology workload
  in
  check_same "a1" runs;
  (* the traced sends are the network's sends *)
  let _, _, traced = runs in
  with_tracing true (fun () ->
      let module R = Runner.Make (Timed.Make (Amcast.A1)) in
      ignore
        (R.run ~seed:5 ~latency:Net.Latency.wan_default
           ~config:Amcast.Protocol.Config.throughput ~record_trace:false topology
           workload);
      let t = Timed.totals () in
      Alcotest.(check int) "a1: sends counted per layer"
        (traced.Run_result.inter_group_msgs + traced.Run_result.intra_group_msgs)
        (Array.fold_left ( + ) 0 t.Timed.intra + Array.fold_left ( + ) 0 t.Timed.inter);
      Alcotest.(check bool) "a1: consensus time attributed" true
        (t.Timed.self_s.(Timed.consensus) > 0.0))

let sim_a2_crashes () =
  let topology = Net.Topology.symmetric ~groups:3 ~per_group:3 in
  let workload =
    Workload.generate ~rng:(Des.Rng.create 4) ~topology ~n:100
      ~dest:Workload.To_all_groups
      ~arrival:(`Poisson (Des.Sim_time.of_ms 10))
      ()
  in
  let faults =
    [
      Runner.crash ~at:(Des.Sim_time.of_ms 50) 1;
      Runner.crash ~drop:(Runtime.Engine.Lose_each_with_probability 0.5)
        ~at:(Des.Sim_time.of_ms 120) 4;
    ]
  in
  check_same "a2"
    (run_both (module Amcast.A2) ~config:Amcast.Protocol.Config.default
       ~latency:Net.Latency.wan_default ~faults topology workload)

(* The benchmark's sim-a2-faults path: [Campaign.run_one] outcomes are
   unchanged by the wrapper, and the run the recorder rebuilds gets the
   same verdict and delivery count. *)
let sim_a2_campaign () =
  let scenarios =
    List.init 40
      (Campaign.scenario_at ~broadcast_only:true ~with_crashes:true
         ~with_nemesis:true ~seed:11)
  in
  let run_one p s = Campaign.run_one p ~check_quiescence:true s in
  List.iter
    (fun s ->
      let plain = run_one (module Amcast.A2) s in
      let wrapped =
        with_tracing true (fun () ->
            Timed.Recorder.start ();
            let o = run_one (module Timed.Make (Amcast.A2)) s in
            Timed.Recorder.stop ();
            o)
      in
      Alcotest.(check bool) "run_one outcome identical" true (plain = wrapped);
      let rebuilt = Timed.Recorder.run_result () in
      Alcotest.(check (list string)) "rebuilt verdict" plain.Campaign.violations
        (Checker.check_all ~check_quiescence:true rebuilt);
      Alcotest.(check int) "rebuilt deliveries" plain.Campaign.delivered
        (Metrics.delivered_count rebuilt))
    scenarios

let mc_a1 () =
  let explore (module P : Amcast.Protocol.S) =
    let module E = Mc.Explorer.Make (P) in
    let cast at tag =
      { Workload.at = Des.Sim_time.of_us at; origin = 0; dest = [ 0; 1 ]; payload = tag }
    in
    let setup =
      E.make_setup ~reorder_bound:1
        ~topology:(Net.Topology.make ~sizes:[ 2; 2 ])
        [ cast 1_000 "a"; cast 2_000 "b" ]
    in
    let o = E.explore setup in
    ( o.E.stats.E.interleavings,
      o.E.stats.E.replays,
      o.E.stats.E.events,
      o.E.stats.E.exhaustive,
      o.E.outcome_digests,
      o.E.violation = None )
  in
  let plain = explore (module Amcast.A1) in
  let i, _, _, exhaustive, _, clean = plain in
  Alcotest.(check bool) "explored" true (i > 1 && exhaustive && clean);
  List.iter
    (fun on ->
      Alcotest.(check bool)
        (Printf.sprintf "exploration identical (tracing %b)" on)
        true
        (with_tracing on (fun () -> explore (module Timed.Make (Amcast.A1))) = plain))
    [ false; true ]

let () =
  Alcotest.run "perfbench"
    [
      ( "timed-transparency",
        [
          Alcotest.test_case "sim-a1 small" `Quick sim_a1;
          Alcotest.test_case "sim-a2 crashes" `Quick sim_a2_crashes;
          Alcotest.test_case "sim-a2 campaign" `Quick sim_a2_campaign;
          Alcotest.test_case "mc-a1 small" `Quick mc_a1;
        ] );
    ]
