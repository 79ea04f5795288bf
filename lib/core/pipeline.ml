(** Host orchestration of multi-stage kernels.

    Plus3 is mapped as two two-input additions (section 8.1): the host
    runs [T = B + C], materialises [T] (the round-trip the paper's
    off-chip formats denote) and feeds it to [A = T + D].  This module is
    the one place that decides how a stage's outputs reach later stages;
    compiling, executing and reporting a stage stay with the caller, and
    so do spans, metrics and error paths. *)

module Tensor = Stardust_tensor.Tensor

(** The inputs of stage [st] drawn from [pool]: one per tensor of
    [st.formats] other than its result and [_]-temporaries — the first
    binding of that name in [pool], renamed to it.  A name [pool] does
    not bind is left out, so compiling the stage reports it. *)
let stage_inputs (st : Kernels.stage) pool =
  List.filter_map
    (fun (n, _) ->
      if n = st.Kernels.result || (String.length n > 0 && n.[0] = '_') then
        None
      else Option.map (fun t -> (n, Tensor.rename n t)) (List.assoc_opt n pool))
    st.Kernels.formats

(** [run spec ~inputs f] applies [f] to every stage of [spec] in order and
    returns its values in stage order.  Stage [st] gets
    [stage_inputs st pool], where [pool] starts as [inputs]; the outputs
    [f] returns shadow earlier bindings of their names for later
    stages. *)
let run (spec : Kernels.spec) ~(inputs : (string * Tensor.t) list)
    (f :
      Kernels.stage ->
      inputs:(string * Tensor.t) list ->
      'a * (string * Tensor.t) list) : 'a list =
  let _, values =
    List.fold_left
      (fun (pool, values) st ->
        let v, outputs = f st ~inputs:(stage_inputs st pool) in
        (outputs @ pool, v :: values))
      (inputs, []) spec.Kernels.stages
  in
  List.rev values
