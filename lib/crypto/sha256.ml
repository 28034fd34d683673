(* SHA-256 over native ints masked to 32 bits. Requires a 64-bit platform. *)

let digest_size = 32
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c;
     0x1f83d9ab; 0x5be0cd19 |]

(* The word kernel. [w] is a 64-word schedule whose first 16 words hold
   the block; [h] is the 8-word state, updated in place. Callers own
   both arrays at exactly those sizes, which is what makes the unchecked
   accesses safe; nothing here allocates.

   Every rotation is a shift of the word doubled into the upper half of
   a native int: for x < 2^32 and n <= 25, bits n..n+31 of
   x lor (x lsl 32) are rotr x n, so one mask finishes a whole Σ/σ. The
   bit that x lsl 32 pushes past a 63-bit int (bit 31 of x) lands above
   bit 56, the highest any of these rotations reads. *)
let compress h w =
  for i = 16 to 63 do
    let x = Array.unsafe_get w (i - 15) and y = Array.unsafe_get w (i - 2) in
    let xx = x lor (x lsl 32) and yy = y lor (y lsl 32) in
    let s0 = ((xx lsr 7) lxor (xx lsr 18)) land mask32 lxor (x lsr 3) in
    let s1 = ((yy lsr 17) lxor (yy lsr 19)) land mask32 lxor (y lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1)
      land mask32)
  done;
  let a = ref (Array.unsafe_get h 0)
  and b = ref (Array.unsafe_get h 1)
  and c = ref (Array.unsafe_get h 2)
  and d = ref (Array.unsafe_get h 3)
  and e = ref (Array.unsafe_get h 4)
  and f = ref (Array.unsafe_get h 5)
  and g = ref (Array.unsafe_get h 6)
  and hh = ref (Array.unsafe_get h 7) in
  for i = 0 to 63 do
    let ev = !e and av = !a in
    let ee = ev lor (ev lsl 32) and aa = av lor (av lsl 32) in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask32 in
    let ch = !g lxor (ev land (!f lxor !g)) in
    let t1 = !hh + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask32 in
    let maj = av land !b lor (!c land (av lor !b)) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask32;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land mask32
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask32);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask32);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask32);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask32);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask32);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask32);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask32);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask32)

(* Big-endian words [w.(0..n-1)] from [n * 4] bytes of [b] at [off]; the
   caller has checked the range. *)
let load_words w n b off =
  for i = 0 to n - 1 do
    let j = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get b j) lsl 24)
      lor (Char.code (Bytes.unsafe_get b (j + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get b (j + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get b (j + 3)))
  done

(* The 8 state words, big-endian, into [out] at [off]. *)
let store_state h out off =
  for i = 0 to 7 do
    let v = h.(i) and j = off + (4 * i) in
    Bytes.set out j (Char.unsafe_chr ((v lsr 24) land 0xff));
    Bytes.set out (j + 1) (Char.unsafe_chr ((v lsr 16) land 0xff));
    Bytes.set out (j + 2) (Char.unsafe_chr ((v lsr 8) land 0xff));
    Bytes.set out (j + 3) (Char.unsafe_chr (v land 0xff))
  done

let string_of_state h =
  let out = Bytes.create digest_size in
  store_state h out 0;
  Bytes.unsafe_to_string out

(* The SHA-NI kernel (sha256_stubs.c): the same compression on the x86
   SHA extensions. Each call runs a whole run of blocks, or every hash
   chain of a W-OTS key or signature, so the boundary is crossed once
   per run, not per block. The stubs allocate nothing, keep no static
   state and trust their arguments, which the callers below check
   first. *)

(* lint: no-static-state — reads cpuid into locals *)
external ni_available : unit -> bool = "vv_sha256_ni_available" [@@noalloc]

(* lint: no-static-state — touches only the state, the bytes and the C stack *)
external ni_compress : int array -> bytes -> int -> int -> unit
  = "vv_sha256_ni_compress"
[@@noalloc]

(* lint: no-static-state — touches only the prefix, values, step counts and the C stack *)
external ni_chains : string -> bytes -> string -> unit = "vv_sha256_ni_chains"
[@@noalloc]

(* The CPU probe, once per process: nothing else chooses the kernel. *)
let sha_ni = ni_available ()
let kernel = if sha_ni then "sha-ni" else "ocaml"

type ctx = {
  ni : bool; (* this context's kernel *)
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed so far *)
  w : int array; (* message schedule scratch (OCaml kernel) *)
}

let make ni =
  {
    ni;
    h = Array.copy iv;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = (if ni then [||] else Array.make 64 0);
  }

(* [n] whole blocks of [b] at [off], a range the caller has checked. *)
let compress_blocks ctx b off n =
  if ctx.ni then ni_compress ctx.h b off n
  else
    for i = 0 to n - 1 do
      load_words ctx.w 16 b (off + (64 * i));
      compress ctx.h ctx.w
    done

let feed_bytes ctx b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  ctx.total <- ctx.total + len;
  let off = ref off and len = ref len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min !len (64 - ctx.buf_len) in
    Bytes.blit b !off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    off := !off + take;
    len := !len - take;
    if ctx.buf_len = 64 then begin
      compress_blocks ctx ctx.buf 0 1;
      ctx.buf_len <- 0
    end
  end;
  let whole = !len / 64 in
  if whole > 0 then compress_blocks ctx b !off whole;
  let rest = !len - (64 * whole) in
  if rest > 0 then begin
    Bytes.blit b (!off + (64 * whole)) ctx.buf 0 rest;
    ctx.buf_len <- rest
  end

let feed ctx s = feed_bytes ctx (Bytes.unsafe_of_string s) 0 (String.length s)

(* Padding goes straight into the block buffer: 0x80, zeros, then the
   64-bit big-endian bit length in the last 8 bytes, spilling into one
   more block when fewer than 9 bytes are free. *)
let finalize ctx =
  let buf = ctx.buf in
  Bytes.set buf ctx.buf_len '\x80';
  if ctx.buf_len >= 56 then begin
    Bytes.fill buf (ctx.buf_len + 1) (63 - ctx.buf_len) '\x00';
    compress_blocks ctx buf 0 1;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf (ctx.buf_len + 1) (55 - ctx.buf_len) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress_blocks ctx buf 0 1;
  ctx.buf_len <- 0;
  string_of_state ctx.h

(* The one-shot functions, on the kernel [ni] names. Each allocates a
   fresh ctx (or its own scratch) per call and shares nothing. *)

let digest_with ni s =
  let ctx = make ni in
  feed ctx s;
  finalize ctx

let digest_list_with ni parts =
  let ctx = make ni in
  List.iter (feed ctx) parts;
  finalize ctx

(* [iterate ~prefix values steps] runs chain i, the 32 bytes of
   [values] at 32 * i, [steps.[i]] times through v <- H(prefix || v),
   in place. The input fits one padded block, so every step is a single
   compression. The SHA-NI kernel runs every chain in one call. The
   OCaml kernel fixes the prefix and padding words once per call, shifts
   the previous digest's 8 words in at the prefix's byte offset, and
   restarts the state from the IV. The arrays are this call's own
   scratch; a step allocates nothing. *)
let iterate_with ni ~prefix values steps =
  let p = String.length prefix in
  if Bytes.length values <> digest_size * String.length steps then
    invalid_arg "Sha256.iterate: values must be 32 bytes per step count";
  if p > 64 - 9 - digest_size then invalid_arg "Sha256.iterate: prefix too long";
  if ni then ni_chains prefix values steps
  else begin
    let block = Bytes.make 64 '\x00' in
    Bytes.blit_string prefix 0 block 0 p;
    Bytes.set block (p + digest_size) '\x80';
    Bytes.set_int64_be block 56 (Int64.of_int (8 * (p + digest_size)));
    let fixed = Array.make 16 0 in
    load_words fixed 16 block 0;
    let h = Array.make 8 0 and w = Array.make 64 0 in
    let q = p / 4 and shift = 8 * (p mod 4) in
    for c = 0 to String.length steps - 1 do
      let n = Char.code (String.unsafe_get steps c) in
      if n > 0 then begin
        load_words h 8 values (digest_size * c);
        for _ = 1 to n do
          Array.blit fixed 0 w 0 16;
          for i = 0 to 7 do
            let x = h.(i) in
            w.(q + i) <- w.(q + i) lor (x lsr shift);
            w.(q + i + 1) <- w.(q + i + 1) lor ((x lsl (32 - shift)) land mask32)
          done;
          for i = 0 to 7 do
            h.(i) <- iv.(i)
          done;
          compress h w
        done;
        store_state h values (digest_size * c)
      end
    done
  end

let hmac_with ni ~key msg =
  let key = if String.length key > 64 then digest_with ni key else key in
  let pad_key c =
    let b = Bytes.make 64 c in
    String.iteri
      (fun i k -> Bytes.set b i (Char.chr (Char.code k lxor Char.code c)))
      key;
    Bytes.unsafe_to_string b
  in
  let ipad = pad_key '\x36' and opad = pad_key '\x5c' in
  digest_list_with ni [ opad; digest_list_with ni [ ipad; msg ] ]

module type S = sig
  type ctx

  val digest_size : int
  val init : unit -> ctx
  val feed : ctx -> string -> unit
  val feed_bytes : ctx -> bytes -> int -> int -> unit
  val finalize : ctx -> string
  val digest : string -> string
  val digest_list : string list -> string
  val iterate : prefix:string -> bytes -> string -> unit
  val hmac : key:string -> string -> string
end

module Portable = struct
  type nonrec ctx = ctx

  let digest_size = digest_size
  let init () = make false
  let feed_bytes = feed_bytes
  let feed = feed
  let finalize = finalize
  let digest s = digest_with false s
  let digest_list parts = digest_list_with false parts
  let iterate ~prefix values steps = iterate_with false ~prefix values steps
  let hmac ~key msg = hmac_with false ~key msg
end

let init () = make sha_ni

(* The batch intake's signature prechecks (Node.receive_all) may call
   these from any domain. The annotations are checked: vegvisir-lint's
   parallel-safety rule walks the call graph, into the stubs'
   declarations, and fails the build if a path to top-level mutable
   state ever appears. *)

(* lint: parallel-safe *)
let digest s = digest_with sha_ni s

(* lint: parallel-safe *)
let digest_list parts = digest_list_with sha_ni parts

(* lint: parallel-safe *)
let iterate ~prefix values steps = iterate_with sha_ni ~prefix values steps

(* lint: parallel-safe *)
let hmac ~key msg = hmac_with sha_ni ~key msg
