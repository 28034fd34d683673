type path = (string * [ `Left | `Right ]) list

type tree = {
  levels : string array array;
  (* levels.(0) = leaf digests; last level has length 1 (the root). *)
}

let leaf_hash v = Sha256.digest_list [ "\x00merkle-leaf"; v ]
let node_hash l r = Sha256.digest_list [ "\x01merkle-node"; l; r ]

let build leaves =
  if leaves = [] then invalid_arg "Merkle.build: no leaves";
  let level0 = Array.of_list (List.map leaf_hash leaves) in
  let rec up acc level =
    if Array.length level = 1 then List.rev (level :: acc)
    else begin
      let n = Array.length level in
      let parent = Array.make ((n + 1) / 2) "" in
      for i = 0 to (n / 2) - 1 do
        parent.(i) <- node_hash level.(2 * i) level.((2 * i) + 1)
      done;
      if n mod 2 = 1 then parent.((n - 1) / 2) <- level.(n - 1);
      up (level :: acc) parent
    end
  in
  { levels = Array.of_list (up [] level0) }

let root t =
  let top = t.levels.(Array.length t.levels - 1) in
  top.(0)

let size t = Array.length t.levels.(0)

let path t i =
  if i < 0 || i >= size t then invalid_arg "Merkle.path: leaf out of range";
  let rec go level idx acc =
    if level >= Array.length t.levels - 1 then List.rev acc
    else begin
      let nodes = t.levels.(level) in
      let n = Array.length nodes in
      let sib = if idx mod 2 = 0 then idx + 1 else idx - 1 in
      let acc =
        if sib >= n then acc (* dangling node: promoted unchanged *)
        else
          let side = if sib < idx then `Left else `Right in
          (nodes.(sib), side) :: acc
      in
      go (level + 1) (idx / 2) acc
    end
  in
  go 0 i []

let path_root ~leaf p =
  List.fold_left
    (fun acc (sib, side) ->
      match side with
      | `Left -> node_hash sib acc
      | `Right -> node_hash acc sib)
    (leaf_hash leaf) p
