(* The traced run's scheduler: the batch loop of
   [Aladdin_scheduler.schedule_batch] and the snapshot of
   [Scheduler.with_transaction], rebuilt here from the same public calls
   in the same order, with each call timed. The deadline check and the
   fault probe of the original loop are left out: with no deadline and no
   fault configuration installed both return at once. The traced run
   checks batch by batch that this copy places exactly as the untraced
   stack does. *)

open Aladdin

type t = {
  mutable snapshot : int;  (* ns *)
  mutable prepare : int;
  mutable fg_build : int;
  mutable order : int;
  mutable find : int;
  mutable find_calls : int;
  mutable paths : int;
  mutable place : int;
  mutable mig : int;
  mutable mig_attempts : int;
  mutable mig_successes : int;
  mutable mig_moves : int;
  mutable pre : int;
  mutable pre_attempts : int;
  mutable pre_successes : int;
  mutable pre_evicted : int;
}

let create () =
  {
    snapshot = 0;
    prepare = 0;
    fg_build = 0;
    order = 0;
    find = 0;
    find_calls = 0;
    paths = 0;
    place = 0;
    mig = 0;
    mig_attempts = 0;
    mig_successes = 0;
    mig_moves = 0;
    pre = 0;
    pre_attempts = 0;
    pre_successes = 0;
    pre_evicted = 0;
  }

(* Time spent in the layers, for the unattributed remainder. *)
let total l =
  l.snapshot + l.prepare + l.fg_build + l.order + l.find + l.place + l.mig
  + l.pre

let now () = Int64.to_int (Obs.now_ns ())

(* The warm scheduler's carried search, bound to one cluster. *)
type warm = { mutable search : Search.t option; mutable bound : Cluster.t option }

let schedule_batch l ?warm (options : Aladdin_scheduler.options) cluster batch
    =
  if options.Aladdin_scheduler.gang then
    invalid_arg "Layers.schedule_batch: gang mode is not traced";
  let t0 = now () in
  let fg = Flow_graph.build cluster batch in
  let t1 = now () in
  l.fg_build <- l.fg_build + (t1 - t0);
  let il = options.Aladdin_scheduler.il and dl = options.Aladdin_scheduler.dl in
  let search =
    match warm with
    | Some w -> (
        match (w.search, w.bound) with
        | Some s, Some cl
          when cl == cluster && Search.il_enabled s = il
               && Search.dl_enabled s = dl ->
            Search.refresh s fg;
            s
        | _ ->
            let s = Search.create ~il ~dl ~eq:true fg in
            w.search <- Some s;
            w.bound <- Some cluster;
            s)
    | None -> Search.create ~il ~dl fg
  in
  let t2 = now () in
  l.prepare <- l.prepare + (t2 - t1);
  let capacity = Topology.capacity (Cluster.topology cluster) 0 in
  let weights =
    match options.Aladdin_scheduler.weight_base with
    | Some base -> Weights.fixed ~base batch ~capacity
    | None -> Weights.compute batch ~capacity
  in
  let order = Array.copy batch in
  Array.sort
    (fun a b ->
      match
        Int.compare
          (Weights.weighted_magnitude weights b)
          (Weights.weighted_magnitude weights a)
      with
      | 0 -> Container.compare_by_arrival a b
      | c -> c)
    order;
  l.order <- l.order + (now () - t2);
  let queue = Queue.create () in
  Array.iter (fun c -> Queue.push c queue) order;
  let requeue_count : (Container.id, int) Hashtbl.t = Hashtbl.create 64 in
  let undeployed = ref [] in
  let migrations = ref 0 and preemptions = ref 0 and rounds = ref 0 in
  while not (Queue.is_empty queue) do
    incr rounds;
    let c = Queue.pop queue in
    let place_on mid =
      let t = now () in
      (match Cluster.place cluster c mid with
      | Ok () -> ()
      | Error _ ->
          Aladdin_error.raise_error
            (Aladdin_error.Placement_failed
               { container = c.Container.id; machine = mid }));
      Search.note_placement search mid;
      l.place <- l.place + (now () - t)
    in
    let t = now () in
    let found = Search.find_machine search c in
    l.find <- l.find + (now () - t);
    l.find_calls <- l.find_calls + 1;
    match found with
    | Some mid -> place_on mid
    | None ->
        let migrated =
          options.Aladdin_scheduler.migration
          &&
          let t = now () in
          l.mig_attempts <- l.mig_attempts + 1;
          match
            Migration.find_and_apply_migration cluster c
              ~max_moves:options.Aladdin_scheduler.max_moves
          with
          | Some plan ->
              migrations := !migrations + List.length plan.Migration.moves;
              Search.invalidate search;
              List.iter
                (fun mv -> Search.note_placement search mv.Migration.to_machine)
                plan.Migration.moves;
              l.mig <- l.mig + (now () - t);
              l.mig_successes <- l.mig_successes + 1;
              l.mig_moves <- l.mig_moves + List.length plan.Migration.moves;
              place_on plan.Migration.target;
              true
          | None ->
              l.mig <- l.mig + (now () - t);
              false
        in
        if not migrated then
          let preempted =
            options.Aladdin_scheduler.preemption
            &&
            let t = now () in
            l.pre_attempts <- l.pre_attempts + 1;
            match Migration.find_and_apply_preemption cluster weights c with
            | Some plan ->
                preemptions :=
                  !preemptions + List.length plan.Migration.evicted;
                Search.invalidate search;
                l.pre <- l.pre + (now () - t);
                l.pre_successes <- l.pre_successes + 1;
                l.pre_evicted <-
                  l.pre_evicted + List.length plan.Migration.evicted;
                place_on plan.Migration.target_machine;
                List.iter
                  (fun (ev : Container.t) ->
                    let n =
                      1
                      + Option.value ~default:0
                          (Hashtbl.find_opt requeue_count ev.Container.id)
                    in
                    Hashtbl.replace requeue_count ev.Container.id n;
                    if n <= options.Aladdin_scheduler.max_requeues then
                      Queue.push ev queue
                    else undeployed := ev :: !undeployed)
                  plan.Migration.evicted;
                true
            | None ->
                l.pre <- l.pre + (now () - t);
                false
          in
          if not preempted then undeployed := c :: !undeployed
  done;
  l.paths <- l.paths + (Search.stats search).Search.paths_explored;
  let placed =
    Array.to_list batch
    |> List.filter_map (fun (c : Container.t) ->
           Option.map
             (fun mid -> (c.Container.id, mid))
             (Cluster.machine_of cluster c.Container.id))
  in
  {
    Scheduler.placed;
    undeployed = List.rev !undeployed;
    violations = [];
    migrations = !migrations;
    preemptions = !preemptions;
    rounds = !rounds;
  }

let restore cluster snap =
  Cluster.reset cluster;
  List.iter
    (fun (c, mid) -> ignore (Cluster.place ~force:true cluster c mid))
    snap

(* [Aladdin_scheduler.make_warm]: a transactional warm batch whose
   recoverable failure restores the snapshot and retries cold once, then
   rejects the batch. *)
let warm_scheduler l options =
  let warm = { search = None; bound = None } in
  let schedule cluster batch =
    let t = now () in
    let snap =
      List.filter_map
        (fun (cid, mid) ->
          Option.map (fun c -> (c, mid)) (Cluster.container cluster cid))
        (Cluster.placements cluster)
    in
    l.snapshot <- l.snapshot + (now () - t);
    match schedule_batch l ~warm options cluster batch with
    | o -> o
    | exception e when Aladdin_scheduler.recoverable e -> (
        restore cluster snap;
        warm.search <- None;
        warm.bound <- None;
        match schedule_batch l options cluster batch with
        | o -> o
        | exception e when Aladdin_scheduler.recoverable e ->
            restore cluster snap;
            Scheduler.reject_outcome batch)
  in
  { Scheduler.name = "traced-aladdin-warm"; schedule }

(* [Aladdin.Cells_scheduler.create] without supervision: warm traced
   cells, and a cold traced fix-up over the outer cluster. *)
let cells_coordinator l ~n_cells ~mode =
  let options = Aladdin_scheduler.default_options in
  Cells.Coordinator.create ~mode ~fixup:true
    ~fixup_run:(schedule_batch l options)
    ~recoverable:Aladdin_scheduler.recoverable ~n_cells
    (fun ~cell:_ ~n_cells:_ -> warm_scheduler l options)
