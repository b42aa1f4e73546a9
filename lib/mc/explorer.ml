open Des
open Net
open Runtime

let crisp_latency =
  Latency.uniform ~intra:(Sim_time.of_ms 1) ~inter:(Sim_time.of_ms 50) ()

let mix h v = ((h * 0x100000001b3) + v + 1) land max_int

let digest (r : Harness.Run_result.t) =
  let h = ref 17 in
  let n = Topology.n_processes r.topology in
  for pid = 0 to n - 1 do
    h := mix !h (-1);
    List.iter
      (fun (m : Amcast.Msg.t) ->
        h := mix !h m.id.Msg_id.origin;
        h := mix !h m.id.Msg_id.seq)
      (Harness.Run_result.sequence_of r pid)
  done;
  List.iter
    (fun pid -> h := mix !h (1000 + pid))
    (List.sort Int.compare r.crashed);
  !h

module Make (P : Amcast.Protocol.S) = struct
  module R = Harness.Runner.Make (P)

  type setup = {
    topology : Topology.t;
    workload : Harness.Workload.t;
    seed : int;
    latency : Latency.t;
    config : Amcast.Protocol.Config.t;
    faults : Harness.Runner.fault list;
    spurious_timers : int;
    reorder_bound : int;
  }

  let make_setup ?(seed = 0) ?(latency = crisp_latency)
      ?(config = Amcast.Protocol.Config.default) ?(faults = [])
      ?(spurious_timers = 0) ?(reorder_bound = max_int) ~topology workload =
    {
      topology;
      workload;
      seed;
      latency;
      config;
      faults;
      spurious_timers;
      reorder_bound;
    }

  let fresh s =
    let d =
      R.deploy ~seed:s.seed ~latency:s.latency ~config:s.config
        ~faults:s.faults s.topology
    in
    Network.set_explode_fanout (Engine.network (R.engine d)) true;
    ignore (R.schedule d s.workload);
    let drv =
      Drive.create ~spurious_timers:s.spurious_timers
        ~reorder_bound:s.reorder_bound
        (Engine.scheduler (R.engine d))
    in
    (d, drv)

  let replay ?max_steps s choices =
    let d, drv = fresh s in
    ignore (Drive.run ?max_steps drv choices);
    R.run_deployment d

  type opts = {
    por : bool;
    fingerprints : bool;
    max_interleavings : int;
    max_path_steps : int;
    max_total_steps : int;
    check : Harness.Run_result.t -> string list;
    stop_on_violation : bool;
  }

  let default_opts =
    {
      por = true;
      fingerprints = false;
      max_interleavings = 200_000;
      max_path_steps = 10_000;
      max_total_steps = 50_000_000;
      check = (fun r -> Harness.Checker.check_all r);
      stop_on_violation = true;
    }

  type violation = { choices : int list; messages : string list }

  type stats = {
    interleavings : int;
    events : int;
    replays : int;
    peak_depth : int;
    sleep_prunes : int;
    arrival_prunes : int;
    fingerprint_prunes : int;
    exhaustive : bool;
  }

  type outcome = {
    stats : stats;
    outcome_digests : int list;
    violation : violation option;
  }

  type ctx = {
    o : opts;
    s : setup;
    on_terminal : (int list -> Harness.Run_result.t -> unit) option;
    seen : (int, unit) Hashtbl.t;
    outcomes : (int, unit) Hashtbl.t;
    mutable interleavings : int;
    mutable events : int;
    mutable replays : int;
    mutable peak_depth : int;
    mutable sleep_prunes : int;
    mutable arrival_prunes : int;
    mutable fingerprint_prunes : int;
    mutable truncated : bool;
    mutable violation : violation option;
  }

  exception Stop

  let exec ctx drv fp trace cs i =
    if ctx.events >= ctx.o.max_total_steps then begin
      ctx.truncated <- true;
      raise Stop
    end;
    let c = Drive.step_in drv cs i in
    ctx.events <- ctx.events + 1;
    if ctx.o.fingerprints then Fingerprint.note_step fp ~tag:c.Drive.tag ~trace

  (* Backtracking re-deploys and fast-forwards through the prefix: the DES
     has no state snapshots, and restoring a marshalled deployment costs
     about as much as replaying a typical prefix. Deterministic handle
     allocation makes the recorded handles valid across replays of the
     same prefix. *)
  let spawn ctx forward_prefix =
    ctx.replays <- ctx.replays + 1;
    let d, drv = fresh ctx.s in
    let fp =
      Fingerprint.create ~n_processes:(Topology.n_processes ctx.s.topology)
    in
    let trace = Engine.trace (R.engine d) in
    List.iter (fun i -> exec ctx drv fp trace (Drive.choices drv) i) forward_prefix;
    (d, drv, fp)

  (* A sibling is sleep-blocked on arrival when the child state it would
     reach offers only [c0] ({!Drive.lone_after}) and [c0] sleeps there:
     the child keeps the sleeping choices that commute with the sibling,
     which [c0] does, so it sleeps iff it is asleep at the node or an
     explored sibling. The child's visit would count exactly one sleep
     prune, unless the depth bound or a fingerprint hit claimed it first.
     [lone_after] reads the driver's reorder count, so it is asked while
     [drv] still stands at the node. *)
  let arrival_blocker ctx drv cs depth idx =
    if
      ctx.o.por && (not ctx.o.fingerprints)
      && depth + 1 < ctx.o.max_path_steps
    then Drive.lone_after drv cs idx
    else None

  let same (a : Drive.choice) (b : Drive.choice) = a.handle = b.handle

  let rec dfs ctx d drv fp depth prefix_rev sleep =
    if depth > ctx.peak_depth then ctx.peak_depth <- depth;
    let cs = Drive.choices drv in
    if cs = [] then begin
      ctx.interleavings <- ctx.interleavings + 1;
      let r = R.run_deployment d in
      Hashtbl.replace ctx.outcomes (digest r) ();
      (match ctx.on_terminal with
      | Some f -> f (List.rev prefix_rev) r
      | None -> ());
      let msgs = ctx.o.check r in
      if msgs <> [] then begin
        if ctx.violation = None then
          ctx.violation <-
            Some { choices = List.rev prefix_rev; messages = msgs };
        if ctx.o.stop_on_violation then raise Stop
      end;
      if ctx.interleavings >= ctx.o.max_interleavings then begin
        ctx.truncated <- true;
        raise Stop
      end
    end
    else if depth >= ctx.o.max_path_steps then ctx.truncated <- true
    else
      let proceed =
        (not ctx.o.fingerprints)
        ||
        let st = Fingerprint.state fp in
        if Hashtbl.mem ctx.seen st then begin
          ctx.fingerprint_prunes <- ctx.fingerprint_prunes + 1;
          false
        end
        else begin
          Hashtbl.add ctx.seen st ();
          true
        end
      in
      if proceed then begin
        let slept c = List.exists (same c) sleep in
        let avail =
          List.mapi (fun idx c -> (idx, c)) cs
          |> List.filter (fun (_, c) -> not (slept c))
          |> List.map (fun (idx, c) ->
                 (idx, c, arrival_blocker ctx drv cs depth idx))
        in
        if avail = [] then ctx.sleep_prunes <- ctx.sleep_prunes + 1
        else begin
          let explored = ref [] in
          (* The node's own deployment goes to its first sibling, which
             spends it; dropping it here keeps it from staying live while
             the later siblings' subtrees run. *)
          let own = ref (Some (d, drv, fp)) in
          List.iter
            (fun (idx, c, blocker) ->
              (match !own with
              | Some node ->
                own := None;
                visit ctx node cs depth prefix_rev sleep !explored (idx, c)
              | None -> (
                match blocker with
                | Some c0 when List.exists (same c0) (sleep @ !explored) ->
                  ctx.sleep_prunes <- ctx.sleep_prunes + 1;
                  ctx.arrival_prunes <- ctx.arrival_prunes + 1;
                  if depth + 1 > ctx.peak_depth then
                    ctx.peak_depth <- depth + 1
                | _ ->
                  visit ctx
                    (spawn ctx (List.rev prefix_rev))
                    cs depth prefix_rev sleep !explored (idx, c)));
              explored := c :: !explored)
            avail
        end
      end

  (* Step sibling [idx] on a deployment standing at the node, then search
     the child. *)
  and visit ctx (d, drv, fp) cs depth prefix_rev sleep explored (idx, c) =
    exec ctx drv fp (Engine.trace (R.engine d)) cs idx;
    let sleep' =
      if ctx.o.por then
        List.filter (fun sc -> Drive.commutes c sc) (sleep @ explored)
      else []
    in
    dfs ctx d drv fp (depth + 1) (idx :: prefix_rev) sleep'

  let explore ?(opts = default_opts) ?on_terminal s =
    let ctx =
      {
        o = opts;
        s;
        on_terminal;
        seen = Hashtbl.create 4096;
        outcomes = Hashtbl.create 256;
        interleavings = 0;
        events = 0;
        replays = 0;
        peak_depth = 0;
        sleep_prunes = 0;
        arrival_prunes = 0;
        fingerprint_prunes = 0;
        truncated = false;
        violation = None;
      }
    in
    (try
       ctx.replays <- 1;
       let d, drv = fresh s in
       let fp =
         Fingerprint.create ~n_processes:(Topology.n_processes s.topology)
       in
       dfs ctx d drv fp 0 [] []
     with Stop -> ());
    let exhaustive =
      (not ctx.truncated)
      && (ctx.violation = None || not opts.stop_on_violation)
    in
    {
      stats =
        {
          interleavings = ctx.interleavings;
          events = ctx.events;
          replays = ctx.replays;
          peak_depth = ctx.peak_depth;
          sleep_prunes = ctx.sleep_prunes;
          arrival_prunes = ctx.arrival_prunes;
          fingerprint_prunes = ctx.fingerprint_prunes;
          exhaustive;
        };
      outcome_digests =
        Hashtbl.fold (fun k () acc -> k :: acc) ctx.outcomes []
        |> List.sort Int.compare;
      violation = ctx.violation;
    }

  let minimize ?check ?max_steps s choices =
    let check =
      match check with
      | Some f -> f
      | None -> fun r -> Harness.Checker.check_all r
    in
    let expand cs =
      let d, drv = fresh s in
      let executed = Drive.run ?max_steps drv cs in
      (executed, R.run_deployment d)
    in
    let full, r0 = expand choices in
    if check r0 = [] then (choices, [])
    else begin
      let cur = ref (Array.of_list full) in
      let len = Array.length !cur in
      for k = 0 to len - 1 do
        if !cur.(k) <> 0 then begin
          let cand = Array.copy !cur in
          cand.(k) <- 0;
          let _, r = expand (Array.to_list cand) in
          if check r <> [] then cur := cand
        end
      done;
      let l = ref (Array.length !cur) in
      while !l > 0 && !cur.(!l - 1) = 0 do
        decr l
      done;
      let final = Array.to_list (Array.sub !cur 0 !l) in
      let _, r = expand final in
      (final, check r)
    end
end
