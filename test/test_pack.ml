(* The level-format packer, pinned two ways: the exact output of every
   Datasets generator (fingerprints and full array hashes, captured from
   the comparison-sort packer this one replaced), and a QCheck property
   against a naive canonicalisation kept here. *)

module F = Stardust_tensor.Format
module T = Stardust_tensor.Tensor
module Coo = Stardust_tensor.Coo
module Stats_cache = Stardust_tensor.Stats_cache
module D = Stardust_workloads.Datasets

(* Every Datasets generator at small sizes, plus the two rotations, in
   csr and csc (matrices) and csf 3 and ucc (3-tensors; [rotate_cols]
   is matrix-only).  The sizes keep
   clamped and hub-column duplicates, so duplicate summing is pinned. *)
let pinned_cases () =
  let matrices (fname, format) =
    let r =
      D.random_matrix ~seed:3 ~name:"r" ~format ~rows:40 ~cols:30
        ~density:0.2 ()
    in
    List.map
      (fun (g, t) -> (g ^ "/" ^ fname, t))
      [
        ("random_matrix", r);
        ("bcsstk30_like", D.bcsstk30_like ~dim:2000 ~format ());
        ("ckt11752_like", D.ckt11752_like ~dim:300 ~format ());
        ("trefethen_like", D.trefethen_like ~dim:200 ~format ());
        ( "small_random",
          D.small_random ~name:"s" ~format ~dims:[ 12; 9 ] ~density:0.3 () );
        ("rotate_cols", D.rotate_cols ~by:3 ~name:"rc" r);
        ("rotate_even_last", D.rotate_even_last ~name:"re" r);
      ]
  in
  let tensors (fname, format) =
    let t =
      D.random_tensor3 ~name:"t" ~format ~dims:[ 12; 10; 8 ] ~density:0.1 ()
    in
    List.map
      (fun (g, t) -> (g ^ "/" ^ fname, t))
      [
        ("random_tensor3", t);
        ( "facebook_like",
          D.facebook_like ~dims:(40, 300, 300) ~density:2e-4 ~format () );
        ( "small_random",
          D.small_random ~name:"s3" ~format ~dims:[ 5; 6; 7 ] ~density:0.2 ()
        );
        ("rotate_even_last", D.rotate_even_last ~name:"re3" t);
      ]
  in
  List.concat_map matrices [ ("csr", F.csr ()); ("csc", F.csc ()) ]
  @ List.concat_map tensors [ ("csf3", F.csf 3); ("ucc", F.ucc ()) ]

(* The sampled fingerprint, then hashes of every level array and of
   every value. *)
let pin (t : T.t) =
  let md5 x = Digest.to_hex (Digest.string (Marshal.to_string x [])) in
  String.concat " " [ Stats_cache.fingerprint t; md5 t.T.levels; md5 t.T.vals ]

(* Captured from the comparison-sort packer this one replaced, and equal
   to it except for the value hashes (and the fingerprints, which sample
   values) of bcsstk30_like and ckt11752_like.  Those generators clamp
   columns into runs of three or more duplicates, which the old packer's
   unstable heap sort summed in no fixed order; this one sums every run
   in insertion order, 1-2 ulp away on 13 of the 46 such runs of
   bcsstk30_like/csr.  Their level hashes are the old packer's. *)
let expected_pins =
  [
    ("random_matrix/csr",
     "r|40x30|csr:01|216|1508eddfc30d6d20 2428fea9f2fa5b9128a47563338783ec a303724f89f12b3442334dcfb7fede98");
    ("bcsstk30_like/csr",
     "bcsstk30|2000x2000|csr:01|7715|943a10f6e411704d e5241a32524e0253687a73b5859a59b9 42e0c9156b1ea7181370c409e8504c41");
    ("ckt11752_like/csr",
     "ckt11752_dc_1|300x300|csr:01|1612|49c57ad7600970b7 7bcdaaaeca00a291dcfd6c7e96cb6c5b 49e94f020f697920f8f528ee0d83c5a2");
    ("trefethen_like/csr",
     "Trefethen_20000|200x200|csr:01|2890|606c1a691da144 dea705e4d35dca0fe097fdf89af9ee71 35a2a8ce5d7759f82b5cc924f83b866a");
    ("small_random/csr",
     "s|12x9|csr:01|31|501ffb61319eb13b ddf55f3ead0febb8bba699a913aaff6f 8392cd7ba8098ab91e7cbb72c5f1c532");
    ("rotate_cols/csr",
     "rc|40x30|csr:01|216|92ac9aa745a73d10 9af274157e1d651d31cf223b3972c3ad f130a6995de1cb92d35d5fe7172320b5");
    ("rotate_even_last/csr",
     "re|40x30|csr:01|216|6e836ea1ed5dc787 47c241d94d1f93a8e999f07fcf17a5d2 1d425d951a0b50480bf0fa0984acb4f9");
    ("random_matrix/csc",
     "r|40x30|csc:10|216|d23fd503f7853fdd 0bf2875c4874ab7e0ade10d78e57af50 2b24c17aeb6cd1ab4a884a17c16554a6");
    ("bcsstk30_like/csc",
     "bcsstk30|2000x2000|csc:10|7715|fb5ec4a09456d72f 139459aeb24b6d171e04cfafe858f930 90c5b64cd04b7caaef62e1b080c10bf1");
    ("ckt11752_like/csc",
     "ckt11752_dc_1|300x300|csc:10|1612|2e9979f12116144f 1f432ac7b614e89a5d075357b081ea65 40b35e796afdf99e2c5f204857c80b71");
    ("trefethen_like/csc",
     "Trefethen_20000|200x200|csc:10|2890|ad72a92fabedb5d0 dea705e4d35dca0fe097fdf89af9ee71 ea37439c4e17f041e6a6c41aaa347731");
    ("small_random/csc",
     "s|12x9|csc:10|31|c73edde457963f3d 665ec4392bedead4366a6892f0584eb3 8c18996aad4b0166a86e8493a794f0df");
    ("rotate_cols/csc",
     "rc|40x30|csc:10|216|d764a8069c3cbe79 14de605de6e1cbc9a6b4943380457dba 7a5cddfbf2c571f3e447f1b6f970b678");
    ("rotate_even_last/csc",
     "re|40x30|csc:10|216|acfd551e1f5ebe3f 715e181af1bc483509a0532da3109da0 a37357a55d0762708457d4343f66600c");
    ("random_tensor3/csf3",
     "t|12x10x8|csf3:012|90|943707226cc8f171 cfbbfd4f05f33837ed279f622343a6d2 4b7226d6129e42dd5a641d96eddcdf68");
    ("facebook_like/csf3",
     "facebook|40x300x300|csf3:012|698|55cd22b4387638f2 28507fe89210a156779a3e1ec417bed9 db82468a741cc12044348b387d813c9a");
    ("small_random/csf3",
     "s3|5x6x7|csf3:012|38|cc74799155bc2ed4 cd23bc66cb395f3e46786ee71e70c960 d2f6b6bde91fc6f3033f9485c6e6c39b");
    ("rotate_even_last/csf3",
     "re3|12x10x8|csf3:012|90|bea321205e12fe45 814931023bcce652d8df9d65d36af8e5 2d903c5ceb3e245560e7ace3ceb89bdb");
    ("random_tensor3/ucc",
     "t|12x10x8|ucc:012|90|4935e8b003b6e6fd 8567f8752193eadd7976872bfa002a3a 4b7226d6129e42dd5a641d96eddcdf68");
    ("facebook_like/ucc",
     "facebook|40x300x300|ucc:012|698|4b4cb9e58254a01e 908cec4fe1ba065d44642fe22ad6e9c2 db82468a741cc12044348b387d813c9a");
    ("small_random/ucc",
     "s3|5x6x7|ucc:012|38|ea62ec605bb5e48f 00a8225c72ba63fca7f62c696c1d74d2 d2f6b6bde91fc6f3033f9485c6e6c39b");
    ("rotate_even_last/ucc",
     "re3|12x10x8|ucc:012|90|dbf25e10da3e6671 bd885d4bf9bc53a18b108411e2f10b49 2d903c5ceb3e245560e7ace3ceb89bdb");
  ]

let test_datasets_pinned () =
  List.iter2
    (fun (label, t) (label', want) ->
      Alcotest.(check string) "case order" label' label;
      Alcotest.(check string) label want (pin t))
    (pinned_cases ()) expected_pins

(* The reference: sort by storage-order key (stable), sum equal runs left
   to right, drop exact zeros. *)
let naive ~mode_order entries =
  let key (c, _) = List.map (fun d -> c.(d)) mode_order in
  let rec merge = function
    | a :: b :: rest when key a = key b -> merge ((fst a, snd a +. snd b) :: rest)
    | (_, v) :: rest when v = 0.0 -> merge rest
    | a :: rest -> a :: merge rest
    | [] -> []
  in
  merge (List.stable_sort (fun a b -> compare (key a) (key b)) entries)

(* Orders 1-4, dims 1-4 (so duplicates are common), any level kinds and
   mode order; values whose sums depend on the summation order (0.1, 0.2,
   0.3) or cancel to 0.0. *)
let gen_case =
  QCheck.Gen.(
    int_range 1 4 >>= fun order ->
    list_repeat order (int_range 1 4) >>= fun dims ->
    list_repeat order bool >>= fun dense ->
    shuffle_l (List.init order Fun.id) >>= fun mode_order ->
    list_size (int_range 0 30)
      (pair
         (map Array.of_list
            (flatten_l (List.map (fun d -> int_bound (d - 1)) dims)))
         (oneofl [ 1.0; -1.0; 0.5; -0.5; 0.1; 0.2; 0.3; 0.0 ]))
    >|= fun entries -> (dims, dense, mode_order, entries))

let print_case (dims, dense, mode_order, entries) =
  let ints l = String.concat "," (List.map string_of_int l) in
  Printf.sprintf "dims=%s dense=%s mode_order=%s entries=%s" (ints dims)
    (String.concat "," (List.map string_of_bool dense))
    (ints mode_order)
    (String.concat " "
       (List.map
          (fun (c, v) -> Printf.sprintf "(%s)=%g" (ints (Array.to_list c)) v)
          entries))

let prop_of_coo_canonical =
  QCheck.Test.make ~name:"of_coo agrees with a naive canonicalisation"
    ~count:500 (QCheck.make ~print:print_case gen_case)
    (fun (dims, dense, mode_order, entries) ->
      let format =
        F.make ~mode_order
          (List.map (fun d -> if d then F.Dense else F.Compressed) dense)
      in
      let coo = Coo.create (Array.of_list dims) in
      List.iter (fun (c, v) -> Coo.add coo c v) entries;
      let t = T.of_coo ~name:"t" ~format coo in
      let want = naive ~mode_order entries in
      (* the arrays are structurally valid level storage *)
      ignore
        (T.of_arrays ~name:"t" ~format ~dims ~levels:t.T.levels ~vals:t.T.vals);
      (* leaf positions: dense levels expand every parent, compressed
         levels hold one position per distinct coordinate prefix *)
      let leaves =
        snd
          (List.fold_left
             (fun (l, p) dense ->
               let prefix (c, _) =
                 List.filteri (fun i _ -> i <= l)
                   (List.map (fun d -> c.(d)) mode_order)
               in
               ( l + 1,
                 if dense then p * List.nth dims (List.nth mode_order l)
                 else List.length (List.sort_uniq compare (List.map prefix want))
               ))
             (0, 1) dense)
      in
      let bits = List.map (fun (c, v) -> (Array.to_list c, Int64.bits_of_float v)) in
      bits (T.to_entries t) = bits want && T.num_vals t = leaves)

let suite =
  [
    Alcotest.test_case "Datasets outputs match their pinned fingerprints"
      `Quick test_datasets_pinned;
    QCheck_alcotest.to_alcotest prop_of_coo_canonical;
  ]
