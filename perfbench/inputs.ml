(* The four workloads' inputs, all drawn from the seeded synthetic Alibaba
   generator. The same seed gives the same inputs. *)

(* One cluster and the batches placed on it, in order. *)
type instance = {
  workload : Workload.t;
  batches : Container.t array array;
  n_machines : int;
}

type batched = {
  instances : instance array;  (* a round places every instance *)
  spec : Engine.Stack.spec;
  tail_p : float;
      (* highest percentile with at least 10 of one round's batches
         beyond it *)
  all_placed : bool;  (* the clusters have room for every container *)
  segment : int;
      (* batches that share one host-speed factor (calib.ml), about
         100 ms of scheduling *)
}

type served = {
  s_workload : Workload.t;
  s_machines : int;
  s_spec : Engine.Stack.spec;
  s_cfg : Serve.Runner.config;
  s_tail_p : float;
}

let spec_of_name name =
  match Engine.Stack.of_name name with
  | Ok s -> s
  | Error e -> failwith e

(* [n] or more containers from the generator. Applications are capped at
   48 containers: uncapped, a handful of applications of a thousand
   containers or more hold much of a draw, and the machines they claim
   and whether they carry priority moved fill's machine count and
   saturated's placed count by up to a third from seed to seed. The
   generator stops near its target, so ask for a little more. *)
let draw ~seed ~n =
  let rec gen factor =
    let w =
      Alibaba.generate
        {
          (Alibaba.scaled factor) with
          Alibaba.seed = seed;
          max_app_size = 48;
        }
    in
    if Workload.n_containers w >= n then w else gen (factor *. 1.1)
  in
  gen (float_of_int n /. 100_000. *. 1.05)

(* [containers] cut into batches of [per_batch], in submission order. *)
let instance w containers ~per_batch ~n_machines =
  let w = Workload.with_containers w containers in
  {
    workload = w;
    batches =
      Array.init (Array.length containers / per_batch) (fun i ->
          Array.sub w.Workload.containers (i * per_batch) per_batch);
    n_machines;
  }

(* fill: the paper's trace replay — the first 20k containers of a draw,
   in the generator's seeded submission order, in 200 batches of 100 on
   10k machines. Nothing fills up, so migration never runs. *)
let fill ~seed =
  let n = 20_000 in
  let w = draw ~seed ~n in
  {
    instances =
      [| instance w (Array.sub w.Workload.containers 0 n) ~per_batch:100
           ~n_machines:10_000 |];
    spec = spec_of_name "aladdin-warm";
    tail_p = 0.95;
    all_placed = true;
    segment = 20;
  }

(* saturated: four clusters of 36 machines, each given 1200 containers in
   50 batches of 24. Each cluster fills about a third of the way through
   and the rest of its batches run the migration/preemption repair path.
   Cluster [k] takes every 25th container of its own 30k draw, seeded
   [4 * seed + k], so that it holds many applications. How much a
   repair-bound cluster manages to place depends on its input's priority
   mix; over four independent draws the placed count moves by about 7%
   from seed to seed, against 11% for four slices of one draw. *)
let saturated ~seed =
  let per_instance = 1200 and stride = 25 in
  {
    instances =
      Array.init 4 (fun k ->
          let w = draw ~seed:((4 * seed) + k) ~n:(per_instance * stride) in
          instance w
            (Array.init per_instance (fun i -> w.Workload.containers.(i * stride)))
            ~per_batch:24 ~n_machines:36);
    spec = spec_of_name "aladdin-warm";
    tail_p = 0.95;
    all_placed = false;
    segment = 5;
  }

(* cells: fill's input through 4 cells, sequential unless a one-off
   reference figure asks for domains. *)
let cells ~seed ~mode =
  {
    (fill ~seed) with
    spec =
      {
        (spec_of_name "cells") with
        Engine.Stack.cells = Some 4;
        cells_mode = Some mode;
      };
    segment = 40;
  }

(* serve: an open loop at a fixed rate (3000 req/s, unless a one-off
   reference figure asks for another) for 8 virtual seconds on 2000
   machines. Templates come from a 20k-container draw, the size the serve
   sweep of bench/main.exe draws for 2000 machines. About 1170 batches
   run, so p99 leaves more than 10 beyond it. *)
let serve ~seed ~rate =
  let w = draw ~seed ~n:20_000 in
  {
    s_workload = w;
    s_machines = 2000;
    s_spec = spec_of_name "aladdin-warm";
    s_cfg =
      {
        Serve.Runner.rate = rate;
        duration = 8.;
        queue_bound = 1024;
        watermark = 768;
        batch_size = 64;
        batch_deadline = 0.005;
        overload_deadline_ms = 25.;
        service_ms = 0.;
        seed;
        modulation = Serve.Arrivals.Steady;
      };
    s_tail_p = 0.99;
  }

let new_cluster w ~n_machines =
  Cluster.create
    (Workload.topology w ~n_machines)
    ~constraints:(Workload.constraint_set w)
