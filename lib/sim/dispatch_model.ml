(** The runtime's dispatch protocol, model-checked as the code that runs.

    The states explored here are made of the real {!Dispatch.t} engine
    state and the real {!Dispatch.Child} segment tables; every parent
    decision is a call to {!Dispatch.step} and every node decision a
    call to {!Dispatch.Child.handle}.  The harness adds only the world
    around them: FIFO channels per node, process kills (each one EOF),
    lost pongs or segment puts, and a clock that jumps to the engine's
    timers.  Every frame must travel in a direction its kind may: a
    node sends only [Pong]/[Data]/[Err]/[Nack], the engine only the
    kinds the parent sends.  Every task seq the engine ever sends must
    be fresh, so a late reply can only ever match the attempt it
    answers, and a job that runs on shipped code must have its node
    hold that code's generation before it computes any of the job's
    tasks: a new generation per job (the warm [Cluster]), or one for
    the whole session ([Darray], [Service]) that a respawned node must
    receive again.

    Seeded bugs are harness wrappers around [step] or the handler, so
    the engine itself carries no test flags. *)

module D = Triolet_runtime.Dispatch
module Protocol = Triolet_runtime.Protocol
module Payload = Triolet_base.Payload
module Envelope = D.Envelope

type bug =
  | Forget_inflight  (** EOF re-issues nothing: the dead child's slices are lost *)
  | No_stale_filter  (** a reply for a completed slice is accepted again *)
  | Stale_reuse
      (** the parent names the version a node already holds instead of
          the current one, so the node's check passes on stale data *)
  | Skip_version_check
      (** the node accepts any key a task or reuse names, whatever
          version its table holds *)
  | Forget_failed_step
      (** a step that fails the job keeps only the state from before
          it, though the actions it emitted were performed *)
  | Code_once
      (** task code ships with a session's first job only, so later
          jobs run on the code of the first *)
  | Code_kept_on_death
      (** a node's EOF leaves its code generation standing, so its
          replacement is never sent the code *)
  | Ping_echo  (** the node answers a [Ping] with a [Ping], not a [Pong] *)

(** Which code the model's jobs run on. *)
type code =
  | Built_in  (** no [Code] frames: nodes keep the compute they were built with *)
  | Per_job  (** a new generation every job *)
  | Per_session  (** one generation for every job *)

type frame = Protocol.kind * Bytes.t

(* Which kinds each side may put on the wire. *)
let node_sends = Protocol.[ Pong; Data; Err; Nack ]
let parent_sends = Protocol.[ Ping; Data; Seg_put; Seg_reuse; Seg_free; Code ]

type state = {
  engine : D.t;
  tables : D.Child.table list;
  codes : int option list;  (** the code generation the node holds *)
  gen : int option;  (** the code generation of the latest job *)
  alive : bool list;  (** the node's process exists *)
  eofs : bool list;  (** a dead process whose one EOF is still to come *)
  down : frame list list;  (** parent -> node, FIFO per node *)
  up : frame list list;  (** node -> parent; survives a kill *)
  completions : int list;  (** per slice of the current job *)
  failed : bool;  (** the current job failed (only where failure may happen) *)
  last_seq : int;  (** the highest task seq sent so far *)
  truth : int list;  (** current version of each segment *)
  rounds : int;  (** jobs still to submit *)
  updates : int;
  kills : int;
  losses : int;  (** pongs that may be lost *)
  put_losses : int;  (** segment puts that may be lost *)
  ticks : int;  (** clock jumps beyond the free respawn ones *)
  bad : string option;
}

let set l i v = List.mapi (fun j x -> if j = i then v else x) l
let did = 0

(* A segment's content is its version, so stale data is visible. *)
let content v = [ Payload.Ints [| v |] ]
let work ~slice:_ ~resident arg = if resident = [] then arg else resident

let plans st n_slices =
  if st.truth = [] then List.init n_slices (fun _ -> [])
  else [ List.mapi (fun seg v -> (did, seg, v)) st.truth ]

(* --- the seeded bugs, as wrappers ------------------------------------ *)

let step bug (t : D.t) ev =
  match (bug, ev) with
  | Some Forget_inflight, D.Eof _ ->
      let t, acts = D.step t ev in
      ( t,
        List.filter
          (function
            | D.Send (_, (D.Task _ | D.Put _ | D.Reuse _)) | D.Note (D.Retry _) -> false
            | _ -> true)
          acts )
  | Some No_stale_filter, D.Frame (_, Protocol.Data, b) -> (
      match (Envelope.tag b, t.job) with
      | Some (s, _), Some job when s >= 0 && s < List.length job.slices ->
          D.step { t with job = Some { job with slices = set job.slices s (D.Waiting 0) } } ev
      | _ -> D.step t ev)
  | Some Forget_failed_step, _ -> (
      let t', acts = D.step t ev in
      match List.exists (function D.Job_failed _ -> true | _ -> false) acts with
      | true -> ({ t with job = None }, acts)
      | false -> (t', acts))
  | Some Code_once, D.Submit _ when t.next_seq > 0 ->
      let t, acts = D.step t ev in
      (t, List.filter (function D.Send (_, D.Code) -> false | _ -> true) acts)
  | Some Code_kept_on_death, D.Eof i ->
      let t', acts = D.step t ev in
      let kept = { (List.nth t'.nodes i) with code = (List.nth t.nodes i).code } in
      ({ t' with nodes = set t'.nodes i kept }, acts)
  | Some Stale_reuse, D.Submit ({ plans; _ } as sub) ->
      let stale n (d, seg, v) =
        match List.find_opt (fun (d', s', _) -> d' = d && s' = seg) n.D.believed with
        | Some k -> k
        | None -> (d, seg, v)
      in
      let plans =
        List.mapi (fun s keys -> List.map (stale (List.nth t.nodes (s mod t.cfg.nodes))) keys) plans
      in
      D.step t (D.Submit { sub with plans })
  | _ -> D.step t ev

let handle bug table ((kind, bytes) : frame) =
  let table =
    match (bug, kind) with
    | Some Skip_version_check, (Protocol.Data | Protocol.Seg_reuse) ->
        let named =
          match Envelope.decode Envelope.task bytes with
          | _, _, (keys, _, _) -> keys
          | exception _ -> (
              match Envelope.decode Envelope.key bytes with
              | _, _, k -> [ k ]
              | exception _ -> [])
        in
        List.fold_left
          (fun tbl ((d, seg, _) as k) ->
            let held = Option.fold ~none:[] ~some:snd (List.assoc_opt (d, seg) tbl) in
            D.Child.install tbl k held)
          table named
    | _ -> table
  in
  let table, out = D.Child.handle ~now:0 ~result:Payload.codec ~work table kind bytes in
  match bug with
  | Some Ping_echo -> (table, List.map (function Protocol.Pong, b -> (Protocol.Ping, b) | f -> f) out)
  | _ -> (table, out)

(* --- applying engine actions to the world ------------------------------ *)

let encode st = function
  | D.Task { slice; seq } ->
      let keys =
        match st.engine.job with Some j -> List.nth j.plans slice | None -> []
      in
      Envelope.encode Envelope.task ~slice ~seq (keys, 0, content slice)
  | D.Put ((_, _, v) as key) -> Envelope.encode Envelope.put ~slice:0 ~seq:0 (key, content v)
  | D.Reuse { slice; seq; key } -> Envelope.encode Envelope.key ~slice ~seq key
  | D.Free d -> Envelope.encode Triolet_base.Codec.int ~slice:(-1) ~seq:0 d
  | D.Ping -> Bytes.empty
  | D.Code ->
      (* The model's code is its generation. *)
      Envelope.encode Triolet_base.Codec.int ~slice:(-1) ~seq:0 (Option.get st.gen)

(* A task of the current job handled by node [n] must run on that job's
   code generation when the job ships code. *)
let code_ok st n ((kind, bytes) : frame) =
  match (kind, st.engine.job) with
  | Protocol.Data, Some ({ code = Some _; _ } as j) -> (
      match Envelope.tag bytes with
      | Some (_, seq) when seq >= j.base -> List.nth st.codes n = j.code
      | _ -> true)
  | _ -> true

let fail st msg = { st with bad = (match st.bad with None -> Some msg | b -> b) }

(* A process dies once: it stops, its queue is gone, one EOF follows. *)
let kill st n =
  if List.nth st.alive n then
    { st with alive = set st.alive n false; eofs = set st.eofs n true; down = set st.down n [] }
  else st

let apply ~may_fail st act =
  match act with
  | D.Send (n, m) ->
      let st =
        if List.mem (D.kind_of_msg m) parent_sends then st
        else fail st (Printf.sprintf "the parent sends %s" (Protocol.kind_name (D.kind_of_msg m)))
      in
      let st =
        match m with
        | D.Task { seq; _ } when seq <= st.last_seq -> fail st (Printf.sprintf "task seq %d reused" seq)
        | D.Task { seq; _ } -> { st with last_seq = seq }
        | _ -> st
      in
      if List.nth st.alive n then
        { st with down = set st.down n (List.nth st.down n @ [ (D.kind_of_msg m, encode st m) ]) }
      else st
  | D.Kill n -> kill st n
  | D.Respawn n ->
      {
        st with
        alive = set st.alive n true;
        eofs = set st.eofs n false;
        tables = set st.tables n D.Child.empty;
        codes = set st.codes n None;
        down = set st.down n [];
        up = set st.up n [];
      }
  | D.Slice_done (s, bytes) ->
      let st = { st with completions = set st.completions s (List.nth st.completions s + 1) } in
      let expect = List.concat_map content st.truth in
      if st.truth <> [] && Envelope.body Payload.codec bytes <> expect then
        fail st (Printf.sprintf "slice %d computed against stale segments" s)
      else st
  | D.Job_failed _ -> if may_fail then { st with failed = true } else fail st "job failed"
  | D.Note _ -> st

let feed ~may_fail bug st ev =
  let engine, acts = step bug st.engine ev in
  List.fold_left (apply ~may_fail) { st with engine } acts

(* --- the model --------------------------------------------------------- *)

let transitions ~may_fail ~code bug st =
  let feed = feed ~may_fail in
  if st.bad <> None then []
  else
    let nodes = List.length st.alive in
    let idle = st.engine.job = None in
    let submit =
      if idle && st.rounds > 0 then
        let plans = plans st (List.length st.completions) in
        let code =
          match code with Built_in -> None | Per_job -> Some st.rounds | Per_session -> Some 0
        in
        [
          ( "submit",
            feed bug
              { st with rounds = st.rounds - 1; completions = List.map (fun _ -> 0) plans; failed = false; gen = code }
              (D.Submit { plans; deadline = 0; pinned = st.truth <> []; code }) );
        ]
      else []
    in
    (* Without supervision, dead nodes come back only when the caller
       revives them between jobs. *)
    let revive =
      if idle && st.engine.cfg.supervision = None && List.exists (fun n -> not (D.live n)) st.engine.nodes
      then [ ("revive", feed bug st D.Revive) ]
      else []
    in
    let updates =
      if idle && st.updates > 0 && st.rounds > 0 then
        List.mapi
          (fun seg v ->
            ( Printf.sprintf "update seg%d -> v%d" seg (v + 1),
              { st with updates = st.updates - 1; truth = set st.truth seg (v + 1) } ))
          st.truth
      else []
    in
    let per_node n =
      let alive = List.nth st.alive n and down = List.nth st.down n and up = List.nth st.up n in
      let handle_ =
        match down with
        | f :: rest when alive ->
            let table, out = handle bug (List.nth st.tables n) f in
            let st =
              match f with
              | Protocol.Code, b -> { st with codes = set st.codes n (Some (Envelope.body Triolet_base.Codec.int b)) }
              | _ when code_ok st n f -> st
              | _ -> fail st (Printf.sprintf "n%d computed a task without its job's code" n)
            in
            let st =
              match List.find_opt (fun (k, _) -> not (List.mem k node_sends)) out with
              | Some (k, _) -> fail st (Printf.sprintf "n%d sends %s" n (Protocol.kind_name k))
              | None -> st
            in
            [
              ( Printf.sprintf "n%d handles %s" n (Protocol.kind_name (fst f)),
                { st with tables = set st.tables n table; down = set st.down n rest; up = set st.up n (up @ out) } );
            ]
        | _ -> []
      in
      let lose_put =
        match down with
        | (Protocol.Seg_put, _) :: rest when alive && st.put_losses > 0 ->
            [ (Printf.sprintf "put to n%d lost" n, { st with put_losses = st.put_losses - 1; down = set st.down n rest }) ]
        | _ -> []
      in
      let deliver =
        match up with
        | (k, b) :: rest ->
            [ (Printf.sprintf "deliver %s from n%d" (Protocol.kind_name k) n, feed bug { st with up = set st.up n rest } (D.Frame (n, k, b))) ]
        | [] -> []
      in
      let lose_pong =
        match up with
        | (Protocol.Pong, _) :: rest when st.losses > 0 ->
            [ (Printf.sprintf "pong from n%d lost" n, { st with losses = st.losses - 1; up = set st.up n rest }) ]
        | _ -> []
      in
      let kill =
        if alive && st.kills > 0 then
          [ (Printf.sprintf "kill n%d" n, kill { st with kills = st.kills - 1 } n) ]
        else []
      in
      (* EOF strictly after the replies the socket still buffers. *)
      let eof =
        if List.nth st.eofs n && up = [] then
          [ (Printf.sprintf "n%d eof" n, feed bug { st with eofs = set st.eofs n false } (D.Eof n)) ]
        else []
      in
      handle_ @ lose_put @ deliver @ lose_pong @ kill @ eof
    in
    (* The clock jumps to an engine timer: a respawn is always allowed
       (deaths are bounded), other timers spend the tick budget. *)
    let respawns = List.filter_map (fun n -> n.D.respawn_at) st.engine.nodes in
    let timers =
      match st.engine.job with
      | Some j -> List.filter_map (function D.Sent { due; _ } -> due | _ -> None) j.slices
      | None -> []
    in
    let ticks =
      let at d = (Printf.sprintf "tick @%d" d, d) in
      List.sort_uniq compare
        ((match respawns with [] -> [] | r -> [ (List.fold_left min max_int r, true) ])
        @
        if st.ticks = 0 then []
        else
          List.map (fun d -> (d, false))
            (Option.to_list (D.next_deadline st.engine) @ timers))
      |> List.filter (fun (d, _) -> d > st.engine.now)
      |> List.map (fun (d, free) ->
             let lbl, d = at d in
             (lbl, feed bug { st with ticks = (if free then st.ticks else st.ticks - 1) } (D.Tick d)))
    in
    submit @ revive @ updates @ List.concat (List.init nodes per_node) @ ticks

let invariant st =
  match st.bad with
  | Some _ as b -> b
  | None ->
      if List.exists (fun c -> c > 1) st.completions then Some "slice completed twice" else None

let terminal_ok st =
  if st.engine.job <> None || ((not st.failed) && List.exists (fun c -> c <> 1) st.completions) then
    Some "slice lost: never completed"
  else if st.rounds > 0 then Some "rounds never submitted"
  else if
    not (List.for_all2 (fun a n -> a && n.D.proto = D.Live) st.alive st.engine.nodes)
  then Some "node never returned to live"
  else None

let check ~name ?bug ?(may_fail = false) ?(code = Built_in) ~(engine : D.config) ~slices ~truth ~rounds ~updates
    ~kills ~losses ~put_losses ~ticks () =
  let nodes = engine.D.nodes in
  let init =
    {
      engine = D.create engine ~now:0;
      tables = List.init nodes (fun _ -> D.Child.empty);
      codes = List.init nodes (fun _ -> None);
      gen = None;
      alive = List.init nodes (fun _ -> true);
      eofs = List.init nodes (fun _ -> false);
      down = List.init nodes (fun _ -> []);
      up = List.init nodes (fun _ -> []);
      completions = List.init slices (fun _ -> 1);
      failed = false;
      last_seq = -1;
      truth;
      rounds;
      updates;
      kills;
      losses;
      put_losses;
      ticks;
      bad = None;
    }
  in
  Modelcheck.explore
    (module struct
      type nonrec state = state

      let name = name
      let scenarios = [ init ]
      let transitions = transitions ~may_fail ~code bug
      let invariant = invariant
      let terminal_ok = terminal_ok
    end : Modelcheck.MODEL
      with type state = state)

(** Supervision and retry: two slices over two supervised nodes, under
    one SIGKILL, lost pongs (enough for a miss verdict), and three
    clock jumps that can fire heartbeats or a slice's timeout early. *)
let check_supervision ?bug () =
  check ~name:"dispatch" ?bug
    ~engine:
      {
        D.nodes = 2;
        policy = { max_attempts = 8; timeout = Some (40, 80) };
        supervision = Some { hb_interval = 10; miss_threshold = 1; backoff_base = 5; backoff_max = 20 };
      }
    ~slices:2 ~truth:[] ~rounds:1 ~updates:0 ~kills:1 ~losses:1 ~put_losses:0 ~ticks:2 ()

(** Residency: two versioned segments resident on one pinned node over
    two rounds, under two version updates, one crash and one lost put,
    on session-lifetime code.  Every compute must see exactly the
    current versions, on the session's code. *)
let check_residency ?bug () =
  check ~name:"residency" ?bug ~code:Per_session
    ~engine:
      {
        D.nodes = 1;
        policy = { max_attempts = 8; timeout = None };
        supervision =
          Some { hb_interval = 1_000_000; miss_threshold = 4; backoff_base = 5; backoff_max = 20 };
      }
    ~slices:1 ~truth:[ 1; 1 ] ~rounds:2 ~updates:2 ~kills:1 ~losses:0 ~put_losses:1 ~ticks:0 ()

(** Failure: as {!check_supervision} but with two attempts per slice and
    two rounds, so a kill, a missed ping or an early timeout can fail
    the first job, on session-lifetime code.  A failed job must still
    leave every dead node respawned, every seq it spent unused by the
    next job, and a replacement node sent the code again. *)
let check_failure ?bug () =
  check ~name:"failure" ?bug ~may_fail:true ~code:Per_session
    ~engine:
      {
        D.nodes = 2;
        policy = { max_attempts = 2; timeout = Some (40, 80) };
        supervision = Some { hb_interval = 10; miss_threshold = 1; backoff_base = 5; backoff_max = 20 };
      }
    ~slices:2 ~truth:[] ~rounds:2 ~updates:0 ~kills:1 ~losses:0 ~put_losses:0 ~ticks:2 ()

(** Warm process fabric: two code-shipping jobs of three slices over
    three unsupervised nodes, under two SIGKILLs at any point; a dead
    node comes back only through a revive between jobs.  Every task
    must run on its own job's code, shipped anew to each node it uses
    every job. *)
let check_cluster ?bug () =
  check ~name:"cluster" ?bug ~code:Per_job
    ~engine:{ D.nodes = 3; policy = { max_attempts = 8; timeout = None }; supervision = None }
    ~slices:3 ~truth:[] ~rounds:2 ~updates:0 ~kills:2 ~losses:0 ~put_losses:0 ~ticks:0 ()
