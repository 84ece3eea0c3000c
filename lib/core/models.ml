type kind = SDG | SDGR | PDG | PDGR

let all_kinds = [ SDG; SDGR; PDG; PDGR ]

let kind_name = function
  | SDG -> "SDG"
  | SDGR -> "SDGR"
  | PDG -> "PDG"
  | PDGR -> "PDGR"

let kind_of_string s =
  match String.uppercase_ascii s with
  | "SDG" -> Some SDG
  | "SDGR" -> Some SDGR
  | "PDG" -> Some PDG
  | "PDGR" -> Some PDGR
  | _ -> None

let is_streaming = function SDG | SDGR -> true | PDG | PDGR -> false
let regenerates = function SDGR | PDGR -> true | SDG | PDG -> false

type t = Streaming of Streaming_model.t | Poisson of Poisson_model.t

let create ~rng ?(lambda = 1.0) kind ~n ~d =
  if is_streaming kind then begin
    (* Streaming churn (Definition 3.2) has no rate parameter: one birth
       per round, lifetime exactly n.  Refuse a lambda that could not
       take effect rather than silently ignore it. *)
    if lambda <> 1.0 then
      invalid_arg
        (Printf.sprintf
           "Models.create: %s is a streaming model; lambda = %g is not \
            expressible (only Poisson models take an arrival rate)"
           (kind_name kind) lambda);
    Streaming (Streaming_model.create ~rng ~n ~d ~regenerate:(regenerates kind) ())
  end
  else Poisson (Poisson_model.create ~rng ~lambda ~n ~d ~regenerate:(regenerates kind) ())

let kind = function
  | Streaming m -> if Streaming_model.regenerates m then SDGR else SDG
  | Poisson m -> if Poisson_model.regenerates m then PDGR else PDG

let n = function Streaming m -> Streaming_model.n m | Poisson m -> Poisson_model.n m
let d = function Streaming m -> Streaming_model.d m | Poisson m -> Poisson_model.d m

let graph = function
  | Streaming m -> Streaming_model.graph m
  | Poisson m -> Poisson_model.graph m

let snapshot = function
  | Streaming m -> Streaming_model.snapshot m
  | Poisson m -> Poisson_model.snapshot m

let advance_batch t k =
  match t with
  | Streaming m -> Streaming_model.run m k
  | Poisson m -> Poisson_model.run_until_time m (Poisson_model.time m +. float_of_int k)

let warm_up_batch = function
  | Streaming m -> Streaming_model.warm_up m
  | Poisson m -> Poisson_model.warm_up m

let flood ?max_rounds t =
  match t with
  | Streaming m -> Flood.run_streaming ?max_rounds m
  | Poisson m -> Flood.run_poisson_discretized ?max_rounds m

module Codec = Churnet_util.Codec

let encode w = function
  | Streaming m ->
      Codec.u8 w 0;
      Streaming_model.encode w m
  | Poisson m ->
      Codec.u8 w 1;
      Poisson_model.encode w m

let decode r =
  match Codec.read_u8 r with
  | 0 -> Streaming (Streaming_model.decode r)
  | 1 -> Poisson (Poisson_model.decode r)
  | b -> raise (Codec.Error (Printf.sprintf "Models.decode: bad model tag %d" b))
