(* Monotonic nanosecond clock. [Unix.gettimeofday] has microsecond
   resolution, which quantizes a 50 us cache hit to 2%. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

let ms ns = float_of_int ns /. 1e6
let s ns = float_of_int ns /. 1e9
