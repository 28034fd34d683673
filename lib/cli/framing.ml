(* One session's byte framing, with no socket and no clock: an
   incremental reader that reassembles length-prefixed frames from
   however many reads it takes, and the queue of framed output that
   however many partial writes drain. The host passes the read and write
   functions in, so a test drives the same code over a scripted byte
   source that a session drives over its conn. *)

let header_bytes = 4

let encode payload =
  let len = String.length payload in
  let buf = Bytes.create (header_bytes + len) in
  Bytes.set_int32_be buf 0 (Int32.of_int len);
  Bytes.blit_string payload 0 buf header_bytes len;
  Bytes.unsafe_to_string buf

let decode_header header =
  let len = Int32.to_int (Bytes.get_int32_be header 0) in
  if len < 0 || len > Vegvisir.Wire.max_frame then Error "bad frame length" else Ok len

(* Smallest payload chunk. A chunk is added only when the held ones are
   full, as large as all of them together but no larger than the frame
   still lacks: a header alone costs at most this much memory, however
   large a length it announces, and a frame of n bytes fills chunks
   totalling n without copying any of them into a larger buffer. *)
let min_chunk_bytes = 4096

type t = {
  header : Bytes.t;
  mutable header_got : int;
  mutable chunks : Bytes.t list;
      (* payload read buffers in fill order, reused across frames *)
  mutable payload_len : int;  (* -1 while reading the header *)
  mutable payload_got : int;
  outq : string Queue.t;  (* already-framed strings *)
  mutable out_head : int;  (* bytes of the front string already written *)
  mutable out_bytes : int;
}

let create () =
  {
    header = Bytes.create header_bytes;
    header_got = 0;
    chunks = [];
    payload_len = -1;
    payload_got = 0;
    outq = Queue.create ();
    out_head = 0;
    out_bytes = 0;
  }

type read =
  Bytes.t ->
  pos:int ->
  len:int ->
  ([ `Read of int | `Eof | `Would_block ], string) result

type write =
  Bytes.t -> pos:int -> len:int -> ([ `Wrote of int | `Would_block ], string) result

let mid_frame t = t.header_got > 0 || t.payload_len >= 0

(* The chunk that payload byte [t.payload_got] goes to, and its offset
   there; past the held chunks, a new one is appended. *)
let payload_chunk t =
  let rec find base = function
    | c :: rest ->
      let n = Bytes.length c in
      if t.payload_got < base + n then (c, t.payload_got - base)
      else find (base + n) rest
    | [] ->
      let size = Int.max min_chunk_bytes (Int.min base (t.payload_len - base)) in
      let c = Bytes.create size in
      t.chunks <- t.chunks @ [ c ];
      (c, 0)
  in
  find 0 t.chunks

(* The completed payload, copied out of its chunks in order. *)
let take_payload t =
  let frame = Bytes.create t.payload_len in
  let rec copy pos = function
    | c :: rest when pos < t.payload_len ->
      let n = Int.min (Bytes.length c) (t.payload_len - pos) in
      Bytes.blit c 0 frame pos n;
      copy (pos + n) rest
    | _ :: _ | [] -> ()
  in
  copy 0 t.chunks;
  t.payload_len <- -1;
  t.payload_got <- 0;
  Bytes.unsafe_to_string frame

let rec read_frame t ~read =
  if t.payload_len < 0 then begin
    match read t.header ~pos:t.header_got ~len:(header_bytes - t.header_got) with
    | Error e -> Error e
    | Ok ((`Would_block | `Eof) as r) -> Ok r
    | Ok (`Read n) ->
      t.header_got <- t.header_got + n;
      if t.header_got < header_bytes then read_frame t ~read
      else begin
        t.header_got <- 0;
        match decode_header t.header with
        | Error e -> Error e
        | Ok 0 -> Ok (`Frame "")
        | Ok len ->
          t.payload_len <- len;
          t.payload_got <- 0;
          read_frame t ~read
      end
  end
  else begin
    let chunk, pos = payload_chunk t in
    let len = Int.min (Bytes.length chunk - pos) (t.payload_len - t.payload_got) in
    match read chunk ~pos ~len with
    | Error e -> Error e
    | Ok ((`Would_block | `Eof) as r) -> Ok r
    | Ok (`Read n) ->
      t.payload_got <- t.payload_got + n;
      if Int.equal t.payload_got t.payload_len then Ok (`Frame (take_payload t))
      else read_frame t ~read
  end

let enqueue t payload =
  let framed = encode payload in
  Queue.add framed t.outq;
  t.out_bytes <- t.out_bytes + String.length framed

let queued_bytes t = t.out_bytes
let has_output t = not (Queue.is_empty t.outq)

let discard_output t =
  Queue.clear t.outq;
  t.out_head <- 0;
  t.out_bytes <- 0

let rec flush t ~write =
  match Queue.peek_opt t.outq with
  | None -> Ok ()
  | Some front ->
    let flen = String.length front in
    if t.out_head >= flen then begin
      let (_ : string) = Queue.pop t.outq in
      t.out_head <- 0;
      flush t ~write
    end
    else begin
      let len = flen - t.out_head in
      match write (Bytes.unsafe_of_string front) ~pos:t.out_head ~len with
      | Error e -> Error e
      | Ok `Would_block -> Ok ()
      | Ok (`Wrote n) ->
        t.out_head <- t.out_head + n;
        t.out_bytes <- t.out_bytes - n;
        flush t ~write
    end
