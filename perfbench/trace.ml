(* The benchmark's clock, sample buffers and in-memory span recorder.

   Spans are recorded from the benchmark's own code, around each call it
   makes into a layer of the system (and by the storage wrapper around
   each storage operation), so no library code changes. They live in flat
   growable integer columns and are written out once, after the run:
   recording one costs two clock reads, two [Gc.minor_words] reads and a
   few array stores. With tracing off, [enter] is a single test. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable int array: latency samples and span columns. *)
module Ints = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let length t = t.n
  let get t i = t.a.(i)
  let set t i x = t.a.(i) <- x
  let to_array t = Array.sub t.a 0 t.n
end

let on = ref false

(* Span names are interned once, so recording a span stores an int. *)
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref [||]

let intern s =
  match Hashtbl.find_opt name_ids s with
  | Some i -> i
  | None ->
      let i = Array.length !names in
      Hashtbl.add name_ids s i;
      names := Array.append !names [| s |];
      i

let name_of i = !names.(i)

let col_name = Ints.create ()
let col_parent = Ints.create ()
let col_req = Ints.create ()
let col_t0 = Ints.create ()
let col_t1 = Ints.create ()
let col_w0 = Ints.create ()
let col_w1 = Ints.create ()
let stack = Array.make 64 (-1)
let depth = ref 0
let req = ref 0
let req_count = ref 0

(* Start a new request: the spans of one worker turn or one dashboard
   refresh share its id. *)
let next_request () =
  incr req_count;
  req := !req_count

let count () = Ints.length col_name

let enter id =
  if not !on then -1
  else begin
    let i = Ints.length col_name in
    Ints.add col_name id;
    Ints.add col_parent (if !depth = 0 then -1 else stack.(!depth - 1));
    Ints.add col_req !req;
    Ints.add col_t1 0;
    Ints.add col_w1 0;
    Ints.add col_w0 (int_of_float (Gc.minor_words ()));
    stack.(!depth) <- i;
    incr depth;
    Ints.add col_t0 (now_ns ());
    i
  end

let exit i =
  if i >= 0 then begin
    Ints.set col_t1 i (now_ns ());
    Ints.set col_w1 i (int_of_float (Gc.minor_words ()));
    (* pop down to [i]: a span left open by an exception ends the stack
       frame of its nearest closed ancestor *)
    while !depth > 0 && stack.(!depth - 1) <> i do
      decr depth
    done;
    if !depth > 0 then decr depth
  end

(* Per-name totals over the spans [lo, hi): calls, inclusive time and
   minor words, and self time and words (inclusive minus the children's).
   Children are nested strictly inside their parent (one thread,
   synchronous calls), so subtracting their durations is exact. *)
type totals = {
  mutable calls : int;
  mutable ns : int;
  mutable self_ns : int;
  mutable words : int;
  mutable self_words : int;
}

let totals ~lo ~hi =
  let n = hi - lo in
  let child_ns = Array.make n 0 and child_words = Array.make n 0 in
  for i = lo to hi - 1 do
    let p = Ints.get col_parent i in
    if p >= lo then begin
      child_ns.(p - lo) <- child_ns.(p - lo) + (Ints.get col_t1 i - Ints.get col_t0 i);
      child_words.(p - lo) <-
        child_words.(p - lo) + (Ints.get col_w1 i - Ints.get col_w0 i)
    end
  done;
  let tbl = Hashtbl.create 32 in
  for i = lo to hi - 1 do
    let name = name_of (Ints.get col_name i) in
    let t =
      match Hashtbl.find_opt tbl name with
      | Some t -> t
      | None ->
          let t = { calls = 0; ns = 0; self_ns = 0; words = 0; self_words = 0 } in
          Hashtbl.add tbl name t;
          t
    in
    let ns = Ints.get col_t1 i - Ints.get col_t0 i in
    let words = Ints.get col_w1 i - Ints.get col_w0 i in
    t.calls <- t.calls + 1;
    t.ns <- t.ns + ns;
    t.self_ns <- t.self_ns + ns - child_ns.(i - lo);
    t.words <- t.words + words;
    t.self_words <- t.self_words + words - child_words.(i - lo)
  done;
  tbl

(* Durations of the spans named [name] in [lo, hi), in call order. *)
let durations ~lo ~hi name =
  let id = intern name in
  let out = Ints.create () in
  for i = lo to hi - 1 do
    if Ints.get col_name i = id then
      Ints.add out (Ints.get col_t1 i - Ints.get col_t0 i)
  done;
  Ints.to_array out

let write path =
  let oc = open_out path in
  output_string oc "span\tparent\trequest\tname\tstart_ns\tend_ns\tminor_words\n";
  for i = 0 to count () - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" i (Ints.get col_parent i)
      (Ints.get col_req i)
      (name_of (Ints.get col_name i))
      (Ints.get col_t0 i) (Ints.get col_t1 i)
      (Ints.get col_w1 i - Ints.get col_w0 i)
  done;
  close_out oc
