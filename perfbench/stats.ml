(* Order statistics and the one-line JSON result. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample with at least [p] of the
   samples at or below it. Always a measured value, never a bucket
   midpoint. *)
let percentile p xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match xs with
  | [] -> 0.
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Every digit the float carries: a value that repeats exactly across runs
   must be a real repeat, not a rounding artefact. *)
let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float value) unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
