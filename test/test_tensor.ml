(* Unit and property tests for the tensor substrate:
   formats, COO building, level-format packing, access, conversion,
   statistics. *)

module F = Stardust_tensor.Format
module Coo = Stardust_tensor.Coo
module T = Stardust_tensor.Tensor
module Stats = Stardust_tensor.Stats
module Stats_cache = Stardust_tensor.Stats_cache

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------------------------------------------ *)
(* Format                                                              *)
(* ------------------------------------------------------------------ *)

let test_format_constructors () =
  checki "csr order" 2 (F.order (F.csr ()));
  checki "csf3 order" 3 (F.order (F.csf 3));
  check (Alcotest.list Alcotest.int) "csc mode order" [ 1; 0 ]
    (F.csc ()).F.mode_order;
  checkb "csr row-major" true ((F.csr ()).F.mode_order = [ 0; 1 ]);
  checkb "dense is dense" true (F.is_fully_dense (F.rm ()));
  checkb "csr not dense" false (F.is_fully_dense (F.csr ()));
  checki "ucc compressed count" 2 (F.num_compressed (F.ucc ()));
  checki "scalar order" 0 (F.order (F.make []))

let test_format_regions () =
  checkb "default off-chip" false (F.is_on_chip (F.csr ()));
  checkb "on_chip" true (F.is_on_chip (F.on_chip (F.csr ())));
  checkb "off_chip round trip" false
    (F.is_on_chip (F.off_chip (F.on_chip (F.csr ()))))

let test_format_level_maps () =
  let csc = F.csc () in
  checki "csc level of dim 0" 1 (F.level_of_dim csc 0);
  checki "csc level of dim 1" 0 (F.level_of_dim csc 1);
  checki "csc dim of level 0" 1 (F.dim_of_level csc 0);
  checkb "level kinds" true (F.level_kind csc 1 = F.Compressed)

let test_format_validation () =
  Alcotest.check_raises "bad mode order"
    (Invalid_argument "Format.make: mode_order is not a permutation")
    (fun () -> ignore (F.make ~mode_order:[ 0; 0 ] [ F.Dense; F.Dense ]));
  Alcotest.check_raises "mode order length"
    (Invalid_argument "Format.make: mode_order length mismatch") (fun () ->
      ignore (F.make ~mode_order:[ 0 ] [ F.Dense; F.Dense ]))

let test_format_short_names () =
  check Alcotest.string "csr" "csr" (F.short_name (F.csr ()));
  check Alcotest.string "csc" "csc" (F.short_name (F.csc ()));
  check Alcotest.string "csf3" "csf3" (F.short_name (F.csf 3));
  check Alcotest.string "ucc" "ucc" (F.short_name (F.ucc ()));
  check Alcotest.string "dv" "dv" (F.short_name (F.dv ()))

(* ------------------------------------------------------------------ *)
(* COO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_coo_dedup () =
  let c = Coo.of_list [ 3; 3 ] [ ([ 0; 1 ], 1.0); ([ 0; 1 ], 2.0); ([ 2; 2 ], 5.0) ] in
  checki "nnz after dedup" 2 (Coo.nnz c);
  let fin = Coo.finalize c in
  checkf "summed" 3.0 (snd (List.hd fin))

let test_coo_zero_drop () =
  let c = Coo.of_list [ 2; 2 ] [ ([ 0; 0 ], 1.0); ([ 0; 0 ], -1.0) ] in
  checki "cancelled entries dropped" 0 (Coo.nnz c)

let test_coo_sorted_by_mode_order () =
  let c = Coo.of_list [ 2; 2 ] [ ([ 0; 1 ], 1.0); ([ 1; 0 ], 2.0) ] in
  let row_major = Coo.finalize c in
  let col_major = Coo.finalize ~mode_order:[ 1; 0 ] c in
  checkf "row major first" 1.0 (snd (List.hd row_major));
  checkf "col major first" 2.0 (snd (List.hd col_major))

let test_coo_bounds () =
  let c = Coo.create [| 2; 2 |] in
  Alcotest.check_raises "oob"
    (Invalid_argument "Coo.add: coordinate 0 out of bounds (2 not in [0,2))")
    (fun () -> Coo.add c [| 2; 0 |] 1.0);
  Alcotest.check_raises "arity" (Invalid_argument "Coo.add: wrong coordinate arity")
    (fun () -> Coo.add c [| 0 |] 1.0)

let test_coo_growth () =
  let c = Coo.create [| 100; 100 |] in
  for i = 0 to 99 do
    for j = 0 to 9 do
      Coo.add c [| i; j |] 1.0
    done
  done;
  checki "length" 1000 (Coo.length c);
  checki "nnz" 1000 (Coo.nnz c)

(* ------------------------------------------------------------------ *)
(* Tensor packing and access                                           *)
(* ------------------------------------------------------------------ *)

let entries2 = [ ([ 0; 1 ], 2.0); ([ 0; 3 ], 1.5); ([ 2; 0 ], -1.0); ([ 3; 3 ], 4.0) ]

let mk fmt = T.of_entries ~name:"t" ~format:fmt ~dims:[ 4; 4 ] entries2

let test_pack_csr () =
  let t = mk (F.csr ()) in
  checki "nnz" 4 (T.nnz t);
  check (Alcotest.array Alcotest.int) "pos" [| 0; 2; 2; 3; 4 |] (T.pos_array t 1);
  check (Alcotest.array Alcotest.int) "crd" [| 1; 3; 0; 3 |] (T.crd_array t 1);
  checkf "get present" 2.0 (T.get t [| 0; 1 |]);
  checkf "get absent" 0.0 (T.get t [| 1; 1 |])

let test_pack_csc () =
  let t = mk (F.csc ()) in
  checki "nnz" 4 (T.nnz t);
  (* column-major: level-0 over columns *)
  check (Alcotest.array Alcotest.int) "pos" [| 0; 1; 2; 2; 4 |] (T.pos_array t 1);
  checkf "same logical content" 0.0 (T.max_abs_diff t (mk (F.csr ())))

let test_pack_dense () =
  let t = mk (F.rm ()) in
  checki "dense num_vals" 16 (T.num_vals t);
  checki "dense nnz" 4 (T.nnz t);
  checkf "dense get" (-1.0) (T.get t [| 2; 0 |])

let test_pack_csf () =
  let entries =
    [ ([ 0; 0; 1 ], 1.0); ([ 0; 2; 0 ], 2.0); ([ 1; 1; 1 ], 3.0); ([ 1; 1; 2 ], 4.0) ]
  in
  let t = T.of_entries ~name:"t3" ~format:(F.csf 3) ~dims:[ 2; 3; 4 ] entries in
  checki "level0 positions" 2 (T.num_positions t 0);
  checki "level1 positions" 3 (T.num_positions t 1);
  checki "level2 positions" 4 (T.num_positions t 2);
  checkf "deep get" 4.0 (T.get t [| 1; 1; 2 |]);
  checkf "deep absent" 0.0 (T.get t [| 1; 2; 2 |])

let test_iter_order () =
  let t = mk (F.csr ()) in
  let seen = ref [] in
  T.iter_nonzeros (fun c v -> seen := (Array.to_list c, v) :: !seen) t;
  check (Alcotest.list (Alcotest.pair (Alcotest.list Alcotest.int) (Alcotest.float 0.0)))
    "storage order"
    [ ([ 0; 1 ], 2.0); ([ 0; 3 ], 1.5); ([ 2; 0 ], -1.0); ([ 3; 3 ], 4.0) ]
    (List.rev !seen)

let test_to_dense () =
  let t = mk (F.csr ()) in
  let d = T.to_dense t in
  checki "dense length" 16 (Array.length d);
  checkf "dense cell" 1.5 d.(3);
  checkf "dense zero" 0.0 d.(5)

let test_convert_roundtrip () =
  let t = mk (F.csr ()) in
  List.iter
    (fun fmt ->
      let t' = T.convert ~format:fmt t in
      checkb
        ("convert to " ^ F.short_name fmt)
        true (T.equal_approx t t'))
    [ F.csc (); F.rm (); F.cm (); F.make [ F.Compressed; F.Compressed ];
      F.make [ F.Compressed; F.Dense ] ]

let test_scalar () =
  let s = T.scalar 42.0 in
  checkb "is scalar" true (T.is_scalar s);
  checkf "value" 42.0 (T.scalar_value s);
  checkf "get" 42.0 (T.get s [||]);
  checki "nnz" 1 (T.nnz s)

let test_of_arrays_validation () =
  let bad_pos () =
    ignore
      (T.of_arrays ~name:"x" ~format:(F.sv ()) ~dims:[ 4 ]
         ~levels:[| T.Compressed_level { pos = [| 0; 2 |]; crd = [| 1 |] } |]
         ~vals:[| 1.0 |])
  in
  Alcotest.check_raises "crd length mismatch"
    (Invalid_argument "Tensor.of_arrays: crd length mismatch") bad_pos;
  let bad_crd () =
    ignore
      (T.of_arrays ~name:"x" ~format:(F.sv ()) ~dims:[ 4 ]
         ~levels:[| T.Compressed_level { pos = [| 0; 1 |]; crd = [| 9 |] } |]
         ~vals:[| 1.0 |])
  in
  Alcotest.check_raises "coordinate out of bounds"
    (Invalid_argument "Tensor.of_arrays: coordinate out of bounds") bad_crd;
  let non_monotone () =
    ignore
      (T.of_arrays ~name:"x" ~format:(F.csr ()) ~dims:[ 2; 2 ]
         ~levels:
           [| T.Dense_level { dim = 2 };
              T.Compressed_level { pos = [| 0; 2; 1 |]; crd = [| 0; 1 |] } |]
         ~vals:[| 1.0; 2.0 |])
  in
  Alcotest.check_raises "pos not monotone"
    (Invalid_argument "Tensor.of_arrays: pos not monotone") non_monotone

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let t = mk (F.csr ()) in
  let s = Stats.of_tensor t in
  checki "nnz" 4 s.Stats.nnz;
  checkf "density" 0.25 s.Stats.density;
  check (Alcotest.array Alcotest.int) "level positions" [| 4; 4 |]
    s.Stats.level_positions;
  checki "max fiber" 2 (Stats.max_fiber_len t 1)

let test_stats_coiter () =
  let a =
    T.of_entries ~name:"a" ~format:(F.csr ()) ~dims:[ 3; 3 ]
      [ ([ 0; 0 ], 1.); ([ 0; 1 ], 1.); ([ 1; 2 ], 1.) ]
  in
  let b =
    T.of_entries ~name:"b" ~format:(F.csr ()) ~dims:[ 3; 3 ]
      [ ([ 0; 1 ], 1.); ([ 1; 2 ], 1.); ([ 2; 2 ], 1.) ]
  in
  checki "intersection full depth" 2 (Stats.prefix_coiter_count ~union:false a b ~depth:1);
  checki "union full depth" 4 (Stats.prefix_coiter_count ~union:true a b ~depth:1);
  checki "intersection rows" 2 (Stats.prefix_coiter_count ~union:false a b ~depth:0);
  checki "union rows" 3 (Stats.prefix_coiter_count ~union:true a b ~depth:0)

let test_fiber_launch_total () =
  (* fibers of lengths 2, 0, 1, 1: with par 16 each nonempty costs 1 *)
  let t = mk (F.csr ()) in
  checkf "par 16" 3.0 (Stats.fiber_launch_total ~par:16 t 1);
  checkf "par 1" 4.0 (Stats.fiber_launch_total ~par:1 t 1);
  checkf "par 2" 3.0 (Stats.fiber_launch_total ~par:2 t 1)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let arb_entries dims =
  let open QCheck in
  let coord = List.mapi (fun _ d -> Gen.int_bound (d - 1)) dims in
  let entry =
    Gen.map2 (fun c v -> (c, v))
      (Gen.flatten_l coord)
      (Gen.map (fun x -> float_of_int (x + 1)) (Gen.int_bound 50))
  in
  make
    ~print:(fun l ->
      String.concat ";"
        (List.map (fun (c, v) ->
             Printf.sprintf "(%s)=%g" (String.concat "," (List.map string_of_int c)) v)
            l))
    (Gen.list_size (Gen.int_bound 30) entry)

let dedup_last entries =
  (* matching Coo semantics: duplicates sum *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (c, v) ->
      Hashtbl.replace tbl c (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl c)))
    entries;
  tbl

let prop_pack_get =
  QCheck.Test.make ~name:"pack/get agrees with summed entries" ~count:200
    (arb_entries [ 5; 6 ])
    (fun entries ->
      let t = T.of_entries ~name:"p" ~format:(F.csr ()) ~dims:[ 5; 6 ] entries in
      let tbl = dedup_last entries in
      Hashtbl.fold
        (fun c v acc -> acc && Float.abs (T.get t (Array.of_list c) -. v) < 1e-9)
        tbl true)

let prop_convert_preserves =
  QCheck.Test.make ~name:"format conversion preserves values" ~count:100
    (arb_entries [ 4; 5 ])
    (fun entries ->
      let t = T.of_entries ~name:"p" ~format:(F.csr ()) ~dims:[ 4; 5 ] entries in
      List.for_all
        (fun fmt -> T.equal_approx t (T.convert ~format:fmt t))
        [ F.csc (); F.rm (); F.make [ F.Compressed; F.Compressed ] ])

let prop_csf_roundtrip =
  QCheck.Test.make ~name:"order-3 pack round-trips through entries" ~count:100
    (arb_entries [ 3; 4; 5 ])
    (fun entries ->
      let t = T.of_entries ~name:"p" ~format:(F.csf 3) ~dims:[ 3; 4; 5 ] entries in
      let t' =
        T.of_entries ~name:"p" ~format:(F.csf 3) ~dims:[ 3; 4; 5 ]
          (List.map (fun (c, v) -> (Array.to_list c, v)) (T.to_entries t))
      in
      T.equal_approx t t')

let prop_coiter_counts_bounds =
  QCheck.Test.make ~name:"coiter counts: |A∩B| <= min <= max <= |A∪B|" ~count:100
    (QCheck.pair (arb_entries [ 4; 4 ]) (arb_entries [ 4; 4 ]))
    (fun (ea, eb) ->
      let a = T.of_entries ~name:"a" ~format:(F.csr ()) ~dims:[ 4; 4 ] ea in
      let b = T.of_entries ~name:"b" ~format:(F.csr ()) ~dims:[ 4; 4 ] eb in
      let inter = Stats.prefix_coiter_count ~union:false a b ~depth:1 in
      let union = Stats.prefix_coiter_count ~union:true a b ~depth:1 in
      inter <= min (T.nnz a) (T.nnz b)
      && union >= max (T.nnz a) (T.nnz b)
      && inter + union = T.nnz a + T.nnz b)

(* Naive storage-order reference for the co-iteration statistics, built
   from lists.  A tensor with [m <= depth] modes is broadcast over the
   other's distinct leading [depth + 1 - m] coordinates; survivors group by
   their first [depth] coordinates, and a group of [n] costs
   [max n par / par]. *)
let naive_coiter ~union ~par a b ~depth =
  let k = depth + 1 in
  let long, short = if T.order a < k then (b, a) else (a, b) in
  let m = min k (T.order short) in
  let take n p = List.filteri (fun i _ -> i < n) p in
  let prefixes t n =
    List.sort_uniq compare
      (List.map
         (fun (c, _) -> take n (List.map (fun d -> c.(d)) (T.format t).F.mode_order))
         (T.to_entries t))
  in
  let pl = prefixes long k in
  let ps =
    if m = k then prefixes short m
    else
      List.concat_map
        (fun lead -> List.map (fun s -> lead @ s) (prefixes short m))
        (List.sort_uniq compare (List.map (take (k - m)) pl))
  in
  let survivors =
    if union then List.sort_uniq compare (pl @ ps)
    else List.filter (fun p -> List.mem p ps) pl
  in
  let groups = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let g = take depth p in
      Hashtbl.replace groups g (1 + Option.value ~default:0 (Hashtbl.find_opt groups g)))
    survivors;
  ( List.length survivors,
    Hashtbl.fold
      (fun _ n acc -> acc +. (float_of_int (max n par) /. float_of_int par))
      groups 0.0 )

let big = 1 lsl 40

(* One co-iteration query: a case name, two tensors and a depth. *)
let arb_coiter_case =
  let open QCheck.Gen in
  let tensor name fmt dims coord =
    map
      (fun cs ->
        T.of_entries ~name ~format:fmt ~dims (List.map (fun c -> (c, 1.0)) cs))
      (list_size (int_bound 14) (flatten_l (List.map coord dims)))
  in
  let small d = int_bound (d - 1) in
  let huge _ = oneofl [ 0; 1; big / 2; big - 1 ] in
  let pair case fa da fb db coord depths =
    map3
      (fun a b depth -> (case, a, b, depth))
      (tensor "a" fa da coord) (tensor "b" fb db coord) (oneofl depths)
  in
  let dcsc = F.make ~mode_order:[ 1; 0 ] [ F.Compressed; F.Compressed ] in
  let csf3 mo = F.make ~mode_order:mo [ F.Compressed; F.Compressed; F.Compressed ] in
  let perms = [ [ 0; 1; 2 ]; [ 0; 2; 1 ]; [ 1; 0; 2 ]; [ 1; 2; 0 ]; [ 2; 0; 1 ]; [ 2; 1; 0 ] ] in
  oneof
    [
      pair "csr" (F.csr ()) [ 4; 5 ] (F.csr ()) [ 4; 5 ] small [ 0; 1 ];
      pair "csc" (F.csc ()) [ 4; 5 ] (F.csc ()) [ 4; 5 ] small [ 0; 1 ];
      pair "dcsc" dcsc [ 4; 5 ] dcsc [ 4; 5 ] small [ 0; 1 ];
      oneofl perms >>= (fun mo ->
        pair "csf3" (csf3 mo) [ 3; 4; 5 ] (csf3 mo) [ 3; 4; 5 ] small [ 0; 1; 2 ]);
      oneofl [ F.csr (); F.csc (); dcsc ] >>= (fun fa ->
        pair "broadcast vector" fa [ 4; 5 ] (F.sv ()) [ 5 ] small [ 1 ]);
      oneofl perms >>= (fun mo ->
        pair "broadcast matrix" (csf3 mo) [ 3; 4; 5 ] (F.csr ()) [ 4; 5 ] small [ 2 ]);
      pair "overflow" dcsc [ big; big ] dcsc [ big; big ] huge [ 0; 1 ];
      pair "overflow broadcast" dcsc [ big; big ] (F.sv ()) [ big ] huge [ 1 ];
    ]
  |> QCheck.make ~print:(fun (case, a, b, depth) ->
         Fmt.str "%s depth %d@.%a@.%a" case depth T.pp a T.pp b)

let prop_coiter_matches_reference =
  QCheck.Test.make ~name:"coiter counts match a storage-order reference"
    ~count:400 arb_coiter_case (fun (_, a, b, depth) ->
      List.for_all
        (fun (union, par) ->
          let count, launch = naive_coiter ~union ~par a b ~depth in
          let near x = Float.abs (x -. launch) <= 1e-9 *. Float.max 1.0 launch in
          Stats.prefix_coiter_count ~union a b ~depth = count
          && Stats_cache.prefix_coiter_count ~union a b ~depth = count
          && near (Stats.coiter_launch_total ~union ~par a b ~depth)
          && near (Stats_cache.coiter_launch_total ~union ~par a b ~depth))
        [ (false, 1); (false, 4); (true, 1); (true, 16) ])

let prop_num_positions_consistent =
  QCheck.Test.make ~name:"level position counts are monotone products" ~count:100
    (arb_entries [ 3; 4; 5 ])
    (fun entries ->
      let t = T.of_entries ~name:"p" ~format:(F.ucc ()) ~dims:[ 3; 4; 5 ] entries in
      T.num_positions t 0 = 3
      && T.num_positions t 2 = T.num_vals t
      && T.num_positions t 1 <= T.num_positions t 2 + 1000000
      && T.nnz t <= T.num_vals t)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pack_get;
      prop_convert_preserves;
      prop_csf_roundtrip;
      prop_coiter_counts_bounds;
      prop_coiter_matches_reference;
      prop_num_positions_consistent;
    ]

let suite =
  [
    ("format constructors", `Quick, test_format_constructors);
    ("format regions", `Quick, test_format_regions);
    ("format level maps", `Quick, test_format_level_maps);
    ("format validation", `Quick, test_format_validation);
    ("format short names", `Quick, test_format_short_names);
    ("coo dedup", `Quick, test_coo_dedup);
    ("coo zero drop", `Quick, test_coo_zero_drop);
    ("coo mode order", `Quick, test_coo_sorted_by_mode_order);
    ("coo bounds", `Quick, test_coo_bounds);
    ("coo growth", `Quick, test_coo_growth);
    ("pack csr", `Quick, test_pack_csr);
    ("pack csc", `Quick, test_pack_csc);
    ("pack dense", `Quick, test_pack_dense);
    ("pack csf", `Quick, test_pack_csf);
    ("iteration order", `Quick, test_iter_order);
    ("to_dense", `Quick, test_to_dense);
    ("convert round trips", `Quick, test_convert_roundtrip);
    ("scalar tensors", `Quick, test_scalar);
    ("of_arrays validation", `Quick, test_of_arrays_validation);
    ("stats basic", `Quick, test_stats_basic);
    ("stats coiter", `Quick, test_stats_coiter);
    ("fiber launch totals", `Quick, test_fiber_launch_total);
  ]
  @ List.map (fun (n, s, f) -> (n, s, f)) qcheck_cases
