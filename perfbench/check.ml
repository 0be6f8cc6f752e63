(* Correctness checker, written apart from Sim.Audit: capacity comes from
   the workload's machine shape and anti-affinity from its application
   specs, not from the cluster's own bookkeeping. *)

type t = {
  capacity : int array;
  within : (Application.id, unit) Hashtbl.t;
  across : (Application.id * Application.id, unit) Hashtbl.t;
  mutable n_errors : int;
  mutable errors : string list;  (* the first few, newest first *)
}

let create (w : Workload.t) =
  let within = Hashtbl.create 64 and across = Hashtbl.create 64 in
  Array.iter
    (fun (a : Application.t) ->
      if a.Application.anti_affinity_within then
        Hashtbl.replace within a.Application.id ();
      List.iter
        (fun b ->
          Hashtbl.replace across (a.Application.id, b) ();
          Hashtbl.replace across (b, a.Application.id) ())
        a.Application.anti_affinity_across)
    w.Workload.apps;
  {
    capacity = Resource.to_array w.Workload.machine_capacity;
    within;
    across;
    n_errors = 0;
    errors = [];
  }

let errors t = List.rev t.errors

let fail t fmt =
  Printf.ksprintf
    (fun s ->
      t.n_errors <- t.n_errors + 1;
      if t.n_errors <= 5 then t.errors <- s :: t.errors)
    fmt

(* One machine's containers, as the cluster or a shadow of it holds them. *)
let check_containers t mid cs =
  let used = Array.make (Array.length t.capacity) 0 in
  let apps = Hashtbl.create 8 in
  List.iter
    (fun (c : Container.t) ->
      Array.iteri
        (fun d x -> used.(d) <- used.(d) + x)
        (Resource.to_array c.Container.demand);
      Hashtbl.replace apps c.Container.app
        (1 + Option.value ~default:0 (Hashtbl.find_opt apps c.Container.app)))
    cs;
  Array.iteri
    (fun d u ->
      if u > t.capacity.(d) then
        fail t "machine %d: dimension %d holds %d of %d" mid d u
          t.capacity.(d))
    used;
  let present = Hashtbl.fold (fun a n acc -> (a, n) :: acc) apps [] in
  List.iter
    (fun (a, n) ->
      if n > 1 && Hashtbl.mem t.within a then
        fail t "machine %d: %d containers of anti-affine app %d" mid n a;
      List.iter
        (fun (b, _) ->
          if a < b && Hashtbl.mem t.across (a, b) then
            fail t "machine %d: conflicting apps %d and %d" mid a b)
        present)
    present

let check_machine t cluster mid =
  check_containers t mid (Machine.containers (Cluster.machine cluster mid))

let check_all t cluster =
  for mid = 0 to Cluster.n_machines cluster - 1 do
    check_machine t cluster mid
  done

(* One batch's outcome: no tolerated violations, placed and undeployed
   disjoint and together the batch, every placement where [machine_of]
   (the cluster after the batch) says it is, and nothing undeployed on a
   machine. Preemption re-queues its victims, containers of earlier
   batches, and reports the ones it could not place again as undeployed;
   those are the only strangers an outcome may name. *)
let check_outcome t ~machine_of (batch : Container.t array)
    (o : Scheduler.outcome) =
  if o.Scheduler.violations <> [] then
    fail t "%d violations reported" (List.length o.Scheduler.violations);
  let pending = Hashtbl.create (Array.length batch) in
  Array.iter
    (fun (c : Container.t) -> Hashtbl.replace pending c.Container.id ())
    batch;
  let batch_ids = Hashtbl.copy pending in
  let settle what cid =
    if Hashtbl.mem pending cid then Hashtbl.remove pending cid
    else fail t "container %d %s twice or outside its batch" cid what
  in
  List.iter
    (fun (cid, mid) ->
      settle "placed" cid;
      if machine_of cid <> Some mid then
        fail t "container %d reported on machine %d but is not there" cid mid)
    o.Scheduler.placed;
  List.iter
    (fun (c : Container.t) ->
      let cid = c.Container.id in
      if machine_of cid <> None then
        fail t "container %d reported undeployed but is placed" cid;
      if Hashtbl.mem pending cid then Hashtbl.remove pending cid
      else if o.Scheduler.preemptions = 0 || Hashtbl.mem batch_ids cid then
        fail t "container %d undeployed twice or outside its batch" cid)
    o.Scheduler.undeployed;
  if Hashtbl.length pending > 0 then
    fail t "%d batch containers neither placed nor undeployed"
      (Hashtbl.length pending)

(* A batch against the cluster after it. When the batch moved nothing (no
   migration, no preemption) only the machines it placed on changed, so
   only those are re-checked. *)
let check_batch t cluster batch (o : Scheduler.outcome) =
  check_outcome t ~machine_of:(Cluster.machine_of cluster) batch o;
  if o.Scheduler.migrations + o.Scheduler.preemptions = 0 then
    List.sort_uniq Int.compare (List.map snd o.Scheduler.placed)
    |> List.iter (check_machine t cluster)
  else check_all t cluster

(* The checker must flag a machine over capacity and an anti-affine pair
   sharing a machine. The cluster's machines are twice the workload's
   shape, so the cluster itself accepts the overfull machine. *)
let self_test () =
  let cpu = Resource.cpu_only in
  let apps =
    [|
      Application.make ~id:0 ~n_containers:2 ~demand:(cpu 20.) ();
      Application.make ~id:1 ~n_containers:1 ~demand:(cpu 4.)
        ~anti_affinity_across:[ 2 ] ();
      Application.make ~id:2 ~n_containers:1 ~demand:(cpu 4.) ();
    |]
  in
  let containers =
    Array.concat
      (List.mapi
         (fun i a ->
           Array.of_list (Application.containers a ~first_id:(10 * i)
                            ~first_arrival:(10 * i)))
         (Array.to_list apps))
  in
  let w = Workload.make ~apps ~containers ~machine_capacity:(cpu 32.) in
  let cluster =
    Cluster.create
      (Topology.homogeneous ~n_machines:3 ~capacity:(cpu 64.) ())
      ~constraints:(Workload.constraint_set w)
  in
  let place c mid =
    match Cluster.place ~force:true cluster c mid with
    | Ok () -> ()
    | Error _ -> failwith "checker self-test: set-up placement refused"
  in
  let by_id id =
    List.find (fun (c : Container.t) -> c.Container.id = id)
      (Array.to_list containers)
  in
  let expect what n_errors f =
    let t = create w in
    f t;
    if t.n_errors <> n_errors then
      failwith
        (Printf.sprintf "checker self-test: %s gave %d findings, expected %d"
           what t.n_errors n_errors)
  in
  expect "empty cluster" 0 (fun t -> check_all t cluster);
  place (by_id 0) 0;
  place (by_id 1) 0;
  expect "over-capacity machine" 1 (fun t -> check_all t cluster);
  place (by_id 10) 1;
  place (by_id 20) 1;
  expect "both faults" 2 (fun t -> check_all t cluster);
  expect "anti-affine pair alone" 1 (fun t -> check_machine t cluster 1);
  let batch = [| by_id 10; by_id 20 |] in
  let outcome =
    { Scheduler.empty_outcome with placed = [ (10, 1) ]; undeployed = [ by_id 10 ] }
  in
  expect "overlapping outcome" 4 (fun t ->
      (* placed and undeployed overlap (twice over: container 10 is also
         on a machine), container 20 is in neither, and machine 1 holds
         the conflicting pair *)
      check_batch t cluster batch outcome)

(* A shadow of the cluster rebuilt from its mutation events, so that a run
   whose timing must not include the checker is still checked after every
   batch, once the run is over. *)
type shadow = {
  hosted : (Container.id, Container.t) Hashtbl.t array;
  where : (Container.id, Machine.id) Hashtbl.t;
  touched : (Machine.id, unit) Hashtbl.t;
}

let shadow ~n_machines =
  {
    hosted = Array.init n_machines (fun _ -> Hashtbl.create 8);
    where = Hashtbl.create 1024;
    touched = Hashtbl.create 64;
  }

let shadow_apply s = function
  | Cluster.Placed (c, mid, _) ->
      Hashtbl.replace s.hosted.(mid) c.Container.id c;
      Hashtbl.replace s.where c.Container.id mid;
      Hashtbl.replace s.touched mid ()
  | Cluster.Removed (c, mid) ->
      Hashtbl.remove s.hosted.(mid) c.Container.id;
      Hashtbl.remove s.where c.Container.id;
      Hashtbl.replace s.touched mid ()

let shadow_machine_of s cid = Hashtbl.find_opt s.where cid

(* Re-check the machines mutated since the last call. *)
let shadow_check_touched t s =
  Hashtbl.iter
    (fun mid () ->
      check_containers t mid
        (Hashtbl.fold (fun _ c acc -> c :: acc) s.hosted.(mid) []))
    s.touched;
  Hashtbl.reset s.touched

(* The shadow must end where the cluster did. *)
let shadow_matches t s cluster =
  if Hashtbl.length s.where <> Cluster.n_placed cluster then
    fail t "shadow holds %d containers, the cluster %d"
      (Hashtbl.length s.where) (Cluster.n_placed cluster);
  List.iter
    (fun (cid, mid) ->
      if shadow_machine_of s cid <> Some mid then
        fail t "container %d on machine %d is not in the shadow" cid mid)
    (Cluster.placements cluster)
