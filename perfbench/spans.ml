(** In-memory spans and counters of a traced run.

    A span records one call into a layer: its name, start, end, the span
    that caused it and the op it belongs to.  Spans stay in memory until
    the run ends, when {!write} dumps them as JSON lines.  Counters hold
    the per-layer counts (calls, allocated words, rejections...) keyed
    ["layer.metric"].  Both are mutex-guarded: the serve workload records
    from two client domains. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** 0 for an op's root span *)
  t0 : float;
  t1 : float;
}

type t = {
  lock : Mutex.t;
  mutable spans : span list;
  mutable next_id : int;
  counts : (string, float) Hashtbl.t;
}

let create () =
  { lock = Mutex.create (); spans = []; next_id = 1; counts = Hashtbl.create 64 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add t key v =
  locked t (fun () ->
      let old = Option.value ~default:0.0 (Hashtbl.find_opt t.counts key) in
      Hashtbl.replace t.counts key (old +. v))

let count t key = Option.value ~default:0.0 (Hashtbl.find_opt t.counts key)

(** A fresh span id, for a root span whose children are recorded before
    the root itself closes. *)
let fresh_id t =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id)

let record t ?id ~name ~op ~parent t0 t1 =
  let id = match id with Some i -> i | None -> fresh_id t in
  locked t (fun () -> t.spans <- { id; name; op; parent; t0; t1 } :: t.spans)

(** [call t ~name ~op ~parent f] runs [f] as one call into layer [name]:
    records its span (under [id] when the caller minted it beforehand)
    and adds to [name.calls], [name.s] and [name.alloc_words].
    Exceptions are recorded, then re-raised. *)
let call t ?id ~name ~op ~parent f =
  let a0 = Common.alloc_words () in
  let t0 = Common.now () in
  let finish () =
    let t1 = Common.now () in
    record t ?id ~name ~op ~parent t0 t1;
    add t (name ^ ".calls") 1.0;
    add t (name ^ ".s") (t1 -. t0);
    add t (name ^ ".alloc_words") (Common.alloc_words () -. a0)
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(** Self time per span name: each span's duration minus the durations of
    its direct children. *)
let self_times t =
  let spans = locked t (fun () -> t.spans) in
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let old = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
        Hashtbl.replace child s.parent (old +. (s.t1 -. s.t0)))
    spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let old = Option.value ~default:0.0 (Hashtbl.find_opt self s.name) in
      Hashtbl.replace self s.name (old +. own))
    spans;
  List.sort compare (List.of_seq (Hashtbl.to_seq self))

(** Write every span as one JSON object per line, in start order, times
    relative to the first span. *)
let write t path =
  let spans =
    List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id))
      (locked t (fun () -> t.spans))
  in
  let base = match spans with [] -> 0.0 | s :: _ -> s.t0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
            s.id s.name s.op s.parent (s.t0 -. base) (s.t1 -. base))
        spans)
