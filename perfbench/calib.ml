(* Host speed. The machines this benchmark runs on share their cores with
   other tenants, and their speed changes in phases of seconds to minutes:
   rounds of one input ran at 12.5k and at 19k containers/s within one
   run. A phase that outlasts a run moves every statistic of that run.
   The benchmark therefore times this kernel, a fixed piece of work that
   uses none of the program's code, right after every timed call, and
   reports times scaled to a reference speed: a time measured while the
   kernel took [reference_ms] is reported as measured, and one measured
   while it took twice as long is reported halved. A change to the
   program moves the scaled times by the same share as the raw ones, as
   long as it leaves the kernel's own time alone.

   The kernel sorts an array and fills a hash table: comparison,
   branching and hashing, as the scheduler's snapshots and searches do.
   Of the kernels tried, such work followed the program's own slowdowns
   most closely; a walk over a large permutation, which waits on memory,
   hardly slowed when the program did. The kernel allocates nothing, so
   that it never runs the garbage collector on the program's behalf: a
   change to how much the program allocates must not change the
   kernel's time. *)

let keys = Array.make 2048 0
let table = Array.make 4096 (-1)

(* Shell sort in place, with plain loops: the standard library's sort
   raises (and so allocates) as it goes. *)
let sort a =
  let n = Array.length a in
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let g = !gap in
    for i = g to n - 1 do
      let v = a.(i) in
      let j = ref i in
      while !j >= g && a.(!j - g) > v do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- v
    done;
    gap := g / 3
  done

let kernel () =
  let x = ref 12345 in
  for i = 0 to Array.length keys - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    keys.(i) <- !x
  done;
  sort keys;
  Array.fill table 0 (Array.length table) (-1);
  let mask = Array.length table - 1 and found = ref 0 in
  for pass = 0 to 1 do
    for i = 0 to Array.length keys - 1 do
      let k = keys.(i) in
      let j = ref (((k * 0x9E3779B1) lsr 7) land mask) in
      while table.(!j) >= 0 && table.(!j) <> k do
        j := (!j + 1) land mask
      done;
      if table.(!j) = k then incr found
      else if pass = 0 then table.(!j) <- k
    done
  done;
  ignore (Sys.opaque_identity !found)

(* What the kernel takes at the reference speed. *)
let reference_ms = 1.0

let sample_ms () =
  let t0 = Obs.now_ns () in
  kernel ();
  Int64.to_float (Int64.sub (Obs.now_ns ()) t0) /. 1e6

let samples n = List.init n (fun _ -> sample_ms ())

(* The factor that takes a time measured among [samples] to the
   reference speed: [reference_ms] over their mean. The mean, not the
   median, because the program slows with the mean load: a burst that
   one sample of many catches slows the program as well. *)
let factor samples = reference_ms /. Stats.mean samples
