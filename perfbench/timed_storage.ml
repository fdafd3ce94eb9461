(* A [Cylog.Storage.S] that delegates to another one and records count,
   bytes and time per operation, plus a span per operation when tracing.
   Bytes appended to a [.tmp] file are compaction snapshot bytes: the
   journal writes the snapshot there and commits it with a [rename]; every
   other append is a WAL record. *)

open Cylog

type op = { mutable count : int; mutable bytes : int; mutable ns : int }

type t = {
  append : op;
  fsync : op;
  fsync_dir : op;
  rename : op;
  read_file : op;
  truncate : op;
  mutable wal_bytes : int;
  mutable snapshot_bytes : int;  (* committed by a rename *)
  tmp : (string, int) Hashtbl.t;  (* bytes appended to uncommitted .tmp files *)
}

let op () = { count = 0; bytes = 0; ns = 0 }

let create () =
  {
    append = op ();
    fsync = op ();
    fsync_dir = op ();
    rename = op ();
    read_file = op ();
    truncate = op ();
    wal_bytes = 0;
    snapshot_bytes = 0;
    tmp = Hashtbl.create 4;
  }

let sp_append = Trace.intern "Storage.append"
let sp_fsync = Trace.intern "Storage.fsync"
let sp_fsync_dir = Trace.intern "Storage.fsync_dir"
let sp_rename = Trace.intern "Storage.rename"
let sp_read_file = Trace.intern "Storage.read_file"
let sp_truncate = Trace.intern "Storage.truncate"

let timed op span bytes f =
  let sp = Trace.enter span in
  let t0 = Trace.now_ns () in
  let r = f () in
  op.ns <- op.ns + (Trace.now_ns () - t0);
  op.count <- op.count + 1;
  op.bytes <- op.bytes + bytes;
  Trace.exit sp;
  r

let make (module P : Storage.S) c : (module Storage.S) =
  (module struct
    let mkdirp = P.mkdirp
    let list_dir = P.list_dir
    let exists = P.exists
    let size = P.size
    let delete = P.delete
    let close = P.close

    let read_file path =
      let s = timed c.read_file sp_read_file 0 (fun () -> P.read_file path) in
      c.read_file.bytes <- c.read_file.bytes + String.length s;
      s

    let append path data =
      let n = String.length data in
      timed c.append sp_append n (fun () -> P.append path data);
      if Filename.check_suffix path ".tmp" then
        Hashtbl.replace c.tmp path
          (n + Option.value (Hashtbl.find_opt c.tmp path) ~default:0)
      else c.wal_bytes <- c.wal_bytes + n

    let fsync path = timed c.fsync sp_fsync 0 (fun () -> P.fsync path)
    let fsync_dir dir = timed c.fsync_dir sp_fsync_dir 0 (fun () -> P.fsync_dir dir)

    let truncate path len =
      timed c.truncate sp_truncate 0 (fun () -> P.truncate path len)

    let rename src dst =
      timed c.rename sp_rename 0 (fun () -> P.rename src dst);
      match Hashtbl.find_opt c.tmp src with
      | Some n ->
          Hashtbl.remove c.tmp src;
          c.snapshot_bytes <- c.snapshot_bytes + n
      | None -> ()
  end)

(* Totals over the per-shard instances. *)
let sum cs =
  let t = create () in
  let add (a : op) (b : op) =
    a.count <- a.count + b.count;
    a.bytes <- a.bytes + b.bytes;
    a.ns <- a.ns + b.ns
  in
  List.iter
    (fun c ->
      add t.append c.append;
      add t.fsync c.fsync;
      add t.fsync_dir c.fsync_dir;
      add t.rename c.rename;
      add t.read_file c.read_file;
      add t.truncate c.truncate;
      t.wal_bytes <- t.wal_bytes + c.wal_bytes;
      t.snapshot_bytes <- t.snapshot_bytes + c.snapshot_bytes)
    cs;
  t
