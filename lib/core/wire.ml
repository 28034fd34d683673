exception Malformed of string

(* Frames over ~64 MiB mean a corrupt or hostile length prefix, not a
   blockchain: the framer refuses them before allocating, and responders
   stop filling a reply before it would pass this size. *)
let max_frame = 64 * 1024 * 1024

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }
let at_end c = Int.equal c.pos (String.length c.data)
let expect_end c = if not (at_end c) then raise (Malformed "trailing bytes")

let need c n =
  if c.pos + n > String.length c.data then raise (Malformed "truncated input")

let put_u8 b v =
  if v < 0 || v > 0xff then invalid_arg "Wire.put_u8";
  Buffer.add_char b (Char.chr v)

let put_u16 b v =
  if v < 0 || v > 0xffff then invalid_arg "Wire.put_u16";
  Buffer.add_char b (Char.chr (v lsr 8));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_u32 b v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Wire.put_u32";
  for i = 3 downto 0 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put_i64 b v =
  for i = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_list b f l =
  put_u32 b (List.length l);
  List.iter (f b) l

let put_opt b f = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    f b v

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  need c 2;
  let v = (Char.code c.data.[c.pos] lsl 8) lor Char.code c.data.[c.pos + 1] in
  c.pos <- c.pos + 2;
  v

let get_u32 c =
  need c 4;
  let v =
    (Char.code c.data.[c.pos] lsl 24)
    lor (Char.code c.data.[c.pos + 1] lsl 16)
    lor (Char.code c.data.[c.pos + 2] lsl 8)
    lor Char.code c.data.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for i = 0 to 7 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code c.data.[c.pos + i]))
  done;
  c.pos <- c.pos + 8;
  !v

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let skip c n =
  need c n;
  c.pos <- c.pos + n

let get_list c f =
  let n = get_u32 c in
  List.init n (fun _ -> f c)

let get_opt c f = match get_u8 c with 0 -> None | 1 -> Some (f c) | _ -> raise (Malformed "bad option tag")

let decode_string f s =
  let c = cursor s in
  match f c with
  | v ->
    if at_end c then Some v else None
  | exception Malformed _ -> None
  | exception Invalid_argument _ -> None
