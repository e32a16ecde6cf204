module G = Labeled_graph

let signature g u = (G.degree g u, G.label g u)

(* Backtracking over [g]'s nodes in BFS order from node 0: every node
   after the first has an already-mapped neighbour [w], so its image
   must be a neighbour of [w]'s image and candidate sets are rows of
   [h], not all of [h]. A candidate fits when it is unused, carries the
   same degree and label, is adjacent to the images of all mapped
   neighbours, and has no other used neighbour — with an injective
   mapping that also preserves non-edges. *)
let find g h =
  let n = G.card g in
  if n <> G.card h || G.num_edges g <> G.num_edges h then None
  else begin
    let sorted gr = List.sort compare (List.map (signature gr) (G.nodes gr)) in
    if sorted g <> sorted h then None
    else begin
      let mapping = Array.make n (-1) in
      let used = Array.make n false in
      let dist0 = Neighborhood.distances g 0 in
      let order = Array.init n Fun.id in
      Array.sort (fun u v -> compare (dist0.(u), u) (dist0.(v), v)) order;
      let compatible u v =
        (not used.(v))
        && signature g u = signature h v
        &&
        let mapped = ref 0 and adjacent = ref true in
        G.neighbours_iter g u (fun w ->
            let mw = mapping.(w) in
            if mw >= 0 then begin
              incr mapped;
              if not (G.has_edge h mw v) then adjacent := false
            end);
        !adjacent
        && G.fold_neighbours h v ~init:0 ~f:(fun k x -> if used.(x) then k + 1 else k) = !mapped
      in
      let candidates u =
        match G.fold_neighbours g u ~init:(-1) ~f:(fun acc w -> if acc < 0 && mapping.(w) >= 0 then w else acc) with
        | -1 -> G.nodes h
        | w -> G.neighbours h mapping.(w)
      in
      let rec assign i =
        i >= n
        ||
        let u = order.(i) in
        List.exists
          (fun v ->
            compatible u v
            && begin
                 mapping.(u) <- v;
                 used.(v) <- true;
                 assign (i + 1)
                 || begin
                      mapping.(u) <- -1;
                      used.(v) <- false;
                      false
                    end
               end)
          (candidates u)
      in
      if assign 0 then Some mapping else None
    end
  end

let isomorphic g h = Option.is_some (find g h)
