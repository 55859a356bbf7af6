(* Branch-free SWAR count of the set bits of a 32-bit value: pairs,
   nibbles and bytes are summed in place, and the multiply adds the
   four byte counts into the top byte. *)
let popcount32 v =
  let v = v - ((v lsr 1) land 0x55555555) in
  let v = (v land 0x33333333) + ((v lsr 2) land 0x33333333) in
  let v = (v + (v lsr 4)) land 0x0F0F0F0F in
  ((v * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount v = popcount32 (v land 0xFFFFFFFF) + popcount32 (v lsr 32)

let choose n k =
  if k < 0 || k > n then 0
  else begin
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1
  end

(* Gosper's hack: next integer with the same popcount. *)
let next_same_weight v =
  let c = v land -v in
  let r = v + c in
  r lor (((v lxor r) / c) lsr 2)

let iter_of_weight ~width ~weight f =
  if weight < 0 || weight > width then ()
  else if weight = 0 then f 0
  else begin
    let limit = 1 lsl width in
    let v = ref ((1 lsl weight) - 1) in
    while !v < limit do
      f !v;
      v := next_same_weight !v
    done
  end

let of_weight ~width ~weight =
  let acc = ref [] in
  iter_of_weight ~width ~weight (fun m -> acc := m :: !acc);
  List.rev !acc

let iter_all ~width f =
  for weight = 0 to width do
    iter_of_weight ~width ~weight (fun mask -> f ~weight ~mask)
  done
