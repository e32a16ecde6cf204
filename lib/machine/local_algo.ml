module C = Lph_util.Codec

type msg = { wire : string; cost : int }

let no_msg = { wire = ""; cost = 0 }

let raw_msg s = { wire = s; cost = String.length s }

let encode_msg c v = let wire = C.encode_wire c v in { wire; cost = C.wire_bits wire }

let decode_msg c (m : msg) = C.decode_wire c m.wire

type ctx = {
  label : string;
  ident : string;
  certs : string list;
  cert_list : string;
  degree : int;
  charge : int -> unit;
}

type 'st t = {
  name : string;
  levels : int;
  radius : int option;
  oblivious : bool;
  init : ctx -> 'st;
  round : ctx -> int -> 'st -> inbox:msg list -> 'st * msg list * bool;
  output : 'st -> string;
}

type packed = Packed : 'st t -> packed

let name (Packed a) = a.name

let levels (Packed a) = a.levels

let radius (Packed a) = a.radius

let pure_decider ~name ~levels verdict =
  Packed
    {
      name;
      levels;
      radius = Some 0;
      oblivious = false;
      init =
        (fun ctx ->
          ctx.charge
            (String.length ctx.label + String.length ctx.ident
            + List.fold_left (fun acc c -> acc + String.length c) 0 ctx.certs);
          verdict ctx);
      round = (fun _ctx _round accepted ~inbox:_ -> (accepted, [], true));
      output = (fun accepted -> if accepted then "1" else "0");
    }

let map_output f (Packed a) = Packed { a with output = (fun st -> f (a.output st)) }

let with_radius radius (Packed a) = Packed { a with radius }

let oblivious (Packed a) = Packed { a with oblivious = true }
