(* Layer attribution from outside the program.

   [Make (P)] is a transparent wrapper around any [Amcast.Protocol.S]: it
   forwards every call to [P] unchanged, so a deployment of [Make (P)]
   executes the same events, sends the same messages and delivers in the
   same orders as a deployment of [P] (the transparency test checks this).
   Around the forwarded calls it keeps, per process:

   - the self time of [cast], of [on_receive] split by the layer named in
     the incoming wire tag's prefix, of timer callbacks and of failure-
     detector notifications; the [deliver] upcall is timed on its own and
     subtracted from the handler that ran it;
   - sends per layer, split intra-group / inter-group;
   - optionally the cast and delivery instants of each message at its
     origin (the message-id spans a KV request's client spans join to).

   Clocks are read only while [tracing] is set; deliveries are counted
   either way. Independently, the
   [Recorder] captures each cast and delivery with its virtual instant and
   Lamport value, which rebuilds the run of a deployment the benchmark
   cannot reach itself (one built inside [Campaign.run_one]).

   Accumulators are per process and a process is driven by one thread at a
   time (the DES thread or its TCP node's loop thread), so nothing here
   takes a lock. The recorder is single-threaded: DES only. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Layer slots. The first five come from wire-tag prefixes. *)
let consensus = 0
let rmcast = 1
let amcast = 2
let fd = 3
let other = 4
let timer = 5
let cast_slot = 6
let upcall = 7
let n_slots = 8
let n_wire_layers = 5

let layer_of_tag tag =
  let prefix =
    match String.index_opt tag '.' with
    | Some i -> String.sub tag 0 i
    | None -> tag
  in
  match prefix with
  | "cons" -> consensus
  | "rm" -> rmcast
  | "a1" | "a2" -> amcast
  | "fd" -> fd
  | _ -> other

type acc = {
  self_ns : int array;  (** Self time per slot. *)
  calls : int array;  (** Calls per slot. *)
  sent_intra : int array;  (** Per wire layer. *)
  sent_inter : int array;
  mutable child_ns : int;
      (** Running total of timed regions that ended; an enclosing region
          subtracts what accrued while it ran. *)
  mutable cast_at : (Runtime.Msg_id.t * int) list;
  mutable upcall_at : (Runtime.Msg_id.t * int * int) list;
      (** Message spans at the origin, newest first, when [msg_spans]. *)
}

let new_acc () =
  {
    self_ns = Array.make n_slots 0;
    calls = Array.make n_slots 0;
    sent_intra = Array.make n_wire_layers 0;
    sent_inter = Array.make n_wire_layers 0;
    child_ns = 0;
    cast_at = [];
    upcall_at = [];
  }

let tracing = ref false
let msg_spans = ref false
let accs : acc array ref = ref [||]

(* Called from [create], which runs on the thread building the deployment
   (never concurrently with the processes it creates). *)
let acc_of pid =
  let a = !accs in
  if pid >= Array.length a then
    accs :=
      Array.init (max (pid + 1) (2 * Array.length a)) (fun i ->
          if i < Array.length a then a.(i) else new_acc ());
  !accs.(pid)

let reset () = accs := [||]

(* Sums over every process. *)
type totals = {
  self_s : float array;
  ncalls : int array;
  intra : int array;
  inter : int array;
}

let totals () =
  let self_ns = Array.make n_slots 0 and ncalls = Array.make n_slots 0 in
  let intra = Array.make n_wire_layers 0 and inter = Array.make n_wire_layers 0 in
  Array.iter
    (fun a ->
      for i = 0 to n_slots - 1 do
        self_ns.(i) <- self_ns.(i) + a.self_ns.(i);
        ncalls.(i) <- ncalls.(i) + a.calls.(i)
      done;
      for i = 0 to n_wire_layers - 1 do
        intra.(i) <- intra.(i) + a.sent_intra.(i);
        inter.(i) <- inter.(i) + a.sent_inter.(i)
      done)
    !accs;
  {
    self_s = Array.map (fun ns -> float_of_int ns *. 1e-9) self_ns;
    ncalls;
    intra;
    inter;
  }

let timed_s t = Array.fold_left ( +. ) 0.0 t.self_s

(* Runs [f] as a region of [slot]: its self time is its duration minus the
   regions that completed inside it. *)
let region a slot f =
  let t0 = now_ns () in
  let c0 = a.child_ns in
  f ();
  let dt = now_ns () - t0 in
  a.self_ns.(slot) <- a.self_ns.(slot) + dt - (a.child_ns - c0);
  a.calls.(slot) <- a.calls.(slot) + 1;
  a.child_ns <- c0 + dt

(* Message spans as (id, cast_ns, upcall_start_ns, upcall_end_ns), for
   messages cast and delivered at the same process. *)
let message_spans () =
  Array.to_list !accs
  |> List.concat_map (fun a ->
         let casts = Runtime.Msg_id.Tbl.create 64 in
         List.iter (fun (id, t) -> Runtime.Msg_id.Tbl.replace casts id t) a.cast_at;
         List.filter_map
           (fun (id, u0, u1) ->
             Option.map
               (fun c -> (id, c, u0, u1))
               (Runtime.Msg_id.Tbl.find_opt casts id))
           a.upcall_at)

(* Forgets the message spans, keeping the counters: message ids restart
   with every new deployment. *)
let clear_spans () =
  Array.iter
    (fun a ->
      a.cast_at <- [];
      a.upcall_at <- [])
    !accs

module Recorder = struct
  type t = {
    mutable on : bool;
    mutable casts : Harness.Run_result.cast_event Harness.Vec.t;
    mutable deliveries : Harness.Run_result.delivery_event Harness.Vec.t;
    mutable alive : (Net.Topology.pid -> bool) option;  (** crash oracle *)
    mutable topology : Net.Topology.t option;
    mutable first_event_ns : int;
  }

  let r =
    {
      on = false;
      casts = Harness.Vec.create ();
      deliveries = Harness.Vec.create ();
      alive = None;
      topology = None;
      first_event_ns = 0;
    }

  (** Starts recording the next deployment. *)
  let start () =
    r.casts <- Harness.Vec.create ();
    r.deliveries <- Harness.Vec.create ();
    r.alive <- None;
    r.topology <- None;
    r.first_event_ns <- 0;
    r.on <- true

  let stop () = r.on <- false

  let event () = if r.first_event_ns = 0 then r.first_event_ns <- now_ns ()

  (** Instant the recorded deployment executed its first protocol event. *)
  let first_event_ns () = r.first_event_ns

  (** The recorded run. [end_time] is the last delivery instant; message
      and event counters are zero (the checkers do not read them). *)
  let run_result () =
    let topology = Option.get r.topology in
    let alive = Option.get r.alive in
    let casts = Harness.Vec.to_list r.casts in
    let deliveries = Harness.Vec.to_list r.deliveries in
    let last =
      List.fold_left
        (fun acc (d : Harness.Run_result.delivery_event) -> Des.Sim_time.max acc d.at)
        Des.Sim_time.zero deliveries
    in
    Harness.Run_result.make ~topology ~casts ~deliveries
      ~crashed:
        (List.filter (fun p -> not (alive p)) (Net.Topology.all_pids topology))
      ~trace:(Runtime.Trace.create ~enabled:false ())
      ~inter_group_msgs:0 ~intra_group_msgs:0
      ~end_time:last ~drained:true ~events_executed:0 ()
end

module Make (P : Amcast.Protocol.S) = struct
  type wire = P.wire

  type t = {
    inner : P.t;
    acc : acc;
    traced : bool;
    services : wire Runtime.Services.t;
  }

  let name = P.name
  let tag = P.tag
  let stats t = P.stats t.inner

  let count_send a topology self layer dst =
    if Net.Topology.same_group topology self dst then
      a.sent_intra.(layer) <- a.sent_intra.(layer) + 1
    else a.sent_inter.(layer) <- a.sent_inter.(layer) + 1

  let wrap_services a (s : wire Runtime.Services.t) =
    let layer w = layer_of_tag (P.tag w) in
    let count = count_send a s.topology s.self in
    {
      s with
      send =
        (fun ~dst w ->
          count (layer w) dst;
          s.send ~dst w);
      send_multi =
        (fun dsts w ->
          let l = layer w in
          List.iter (count l) dsts;
          s.send_multi dsts w);
      set_timer =
        (fun ~after f -> s.set_timer ~after (fun () -> region a timer f));
      on_crash_detected =
        (fun ~delay f ->
          s.on_crash_detected ~delay (fun pid -> region a fd (fun () -> f pid)));
    }

  let create ~(services : wire Runtime.Services.t) ~config ~deliver =
    let self = services.self in
    let a = acc_of self in
    let traced = !tracing in
    let rec_on = Recorder.r.on in
    if rec_on && Recorder.r.topology = None then begin
      Recorder.r.topology <- Some services.topology;
      Recorder.r.alive <- Some services.alive
    end;
    let spans = traced && !msg_spans in
    let deliver (msg : Amcast.Msg.t) =
      if traced then begin
        let t0 = now_ns () in
        region a upcall (fun () -> deliver msg);
        if spans && msg.id.Runtime.Msg_id.origin = self then
          a.upcall_at <- (msg.id, t0, now_ns ()) :: a.upcall_at
      end
      else begin
        a.calls.(upcall) <- a.calls.(upcall) + 1;
        deliver msg
      end;
      if rec_on then
        Harness.Vec.push Recorder.r.deliveries
          {
            Harness.Run_result.pid = self;
            msg;
            at = services.now ();
            lc = services.lc ();
          }
    in
    let inner_services = if traced then wrap_services a services else services in
    let inner = P.create ~services:inner_services ~config ~deliver in
    { inner; acc = a; traced; services }

  let cast t (msg : Amcast.Msg.t) =
    if Recorder.r.on then begin
      Recorder.event ();
      Harness.Vec.push Recorder.r.casts
        {
          Harness.Run_result.msg;
          origin = t.services.self;
          at = t.services.now ();
          lc = t.services.lc ();
        }
    end;
    if t.traced then begin
      if !msg_spans then t.acc.cast_at <- (msg.id, now_ns ()) :: t.acc.cast_at;
      region t.acc cast_slot (fun () -> P.cast t.inner msg)
    end
    else P.cast t.inner msg

  let on_receive t ~src w =
    if Recorder.r.on then Recorder.event ();
    if t.traced then
      region t.acc (layer_of_tag (P.tag w)) (fun () -> P.on_receive t.inner ~src w)
    else P.on_receive t.inner ~src w
end
