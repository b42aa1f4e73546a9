type 'a entry = {
  time : Sim_time.t;
  seq : int;
  handle : int;
  tag : int; (* caller-defined metadata; 0 = untagged *)
  payload : 'a;
}

(* Cancellation is O(1): [flags] is a byte per issued handle (1 = live,
   0 = popped/cancelled/never issued) and [live] counts the set bits, so
   [pop]/[peek_time]/[size] never touch a hash table. Handles are dense
   (allocated 0,1,2,...), which makes a flat byte array both smaller and
   much faster than the Hashtbl it replaces on the per-event hot path. *)
type 'a t = {
  mutable heap : 'a entry array;
  mutable len : int;
  mutable next_seq : int;
  mutable next_handle : int;
  mutable flags : Bytes.t;
  mutable live : int;
}

let create () =
  { heap = [||]; len = 0; next_seq = 0; next_handle = 0;
    flags = Bytes.make 64 '\000'; live = 0 }

let entry_lt a b =
  let c = Sim_time.compare a.time b.time in
  if c <> 0 then c < 0 else a.seq < b.seq

let grow q =
  let cap = Array.length q.heap in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let dummy = q.heap.(0) in
  let nh = Array.make ncap dummy in
  Array.blit q.heap 0 nh 0 q.len;
  q.heap <- nh

(* Hole-based sifts: carry the moving entry in [e] and write it exactly
   once at its final slot, instead of a three-write swap per level. *)
let sift_up q i e =
  let i = ref i in
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if entry_lt e q.heap.(parent) then begin
      q.heap.(!i) <- q.heap.(parent);
      i := parent
    end
    else moving := false
  done;
  q.heap.(!i) <- e

let sift_down q i e =
  let i = ref i in
  let moving = ref true in
  while !moving do
    let l = (2 * !i) + 1 in
    if l >= q.len then moving := false
    else begin
      let r = l + 1 in
      let c = if r < q.len && entry_lt q.heap.(r) q.heap.(l) then r else l in
      if entry_lt q.heap.(c) e then begin
        q.heap.(!i) <- q.heap.(c);
        i := c
      end
      else moving := false
    end
  done;
  q.heap.(!i) <- e

let add_tagged q ~time ~tag payload =
  let handle = q.next_handle in
  q.next_handle <- handle + 1;
  let e = { time; seq = q.next_seq; handle; tag; payload } in
  q.next_seq <- q.next_seq + 1;
  if q.len = 0 && Array.length q.heap = 0 then q.heap <- Array.make 16 e;
  if q.len >= Array.length q.heap then grow q;
  q.len <- q.len + 1;
  sift_up q (q.len - 1) e;
  if handle >= Bytes.length q.flags then begin
    let ncap = max (2 * Bytes.length q.flags) (handle + 1) in
    let nf = Bytes.make ncap '\000' in
    Bytes.blit q.flags 0 nf 0 (Bytes.length q.flags);
    q.flags <- nf
  end;
  Bytes.unsafe_set q.flags handle '\001';
  q.live <- q.live + 1;
  handle

let add q ~time payload = add_tagged q ~time ~tag:0 payload

let cancel q handle =
  if handle >= 0 && handle < q.next_handle
     && Bytes.unsafe_get q.flags handle = '\001'
  then begin
    Bytes.unsafe_set q.flags handle '\000';
    q.live <- q.live - 1
  end

let pop_entry q =
  let e = q.heap.(0) in
  q.len <- q.len - 1;
  if q.len > 0 then sift_down q 0 q.heap.(q.len);
  e

let rec pop q =
  if q.len = 0 then None
  else begin
    let e = pop_entry q in
    if Bytes.unsafe_get q.flags e.handle = '\001' then begin
      Bytes.unsafe_set q.flags e.handle '\000';
      q.live <- q.live - 1;
      Some (e.time, e.payload)
    end
    else pop q (* cancelled: skip *)
  end

let rec peek_time q =
  if q.len = 0 then None
  else begin
    let e = q.heap.(0) in
    if Bytes.unsafe_get q.flags e.handle = '\001' then Some e.time
    else begin
      ignore (pop_entry q);
      peek_time q
    end
  end

let size q = q.live
let is_empty q = q.live = 0

(* Controlled-scheduling support (the model checker's view). These walk the
   raw heap array, so they are O(len) / O(len log len) — irrelevant next to
   the cost of exploring an interleaving, and they leave the hot-path
   representation untouched. *)

let live q =
  let acc = ref [] in
  for i = q.len - 1 downto 0 do
    let e = q.heap.(i) in
    if Bytes.unsafe_get q.flags e.handle = '\001' then acc := e :: !acc
  done;
  List.sort
    (fun a b ->
      let c = Sim_time.compare a.time b.time in
      if c <> 0 then c else Int.compare a.seq b.seq)
    !acc
  |> List.map (fun e -> (e.handle, e.time, e.tag))

(* Removes the entry at heap index [i]: the last entry fills the hole and
   sifts to its place. The vacated tail slot gets the root (or, once the
   queue is empty, the array goes), so that slot does not keep the removed
   payload alive. *)
let remove_at q i =
  let e = q.heap.(i) in
  let last = q.len - 1 in
  q.len <- last;
  if i < last then begin
    let moved = q.heap.(last) in
    if i > 0 && entry_lt moved q.heap.((i - 1) / 2) then sift_up q i moved
    else sift_down q i moved
  end;
  if last = 0 then q.heap <- [||] else q.heap.(last) <- q.heap.(0);
  e

let take q handle =
  if
    handle < 0 || handle >= q.next_handle
    || Bytes.unsafe_get q.flags handle <> '\001'
  then None
  else begin
    Bytes.unsafe_set q.flags handle '\000';
    q.live <- q.live - 1;
    let i = ref 0 in
    while q.heap.(!i).handle <> handle do
      incr i
    done;
    let e = remove_at q !i in
    Some (e.time, e.payload)
  end
