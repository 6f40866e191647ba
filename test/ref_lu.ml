(* Test-only reference: the left-looking LU elimination as a sweep over
   every earlier pivot k < j, the direct form of the loop {!Lubt_lp.Lu}
   drives from a heap. Returns the same factors, so the differential test
   can compare them bit for bit. *)

module Lu = Lubt_lp.Lu
module Sparse = Lubt_lp.Sparse

let factor ?(pivot_tol = 1e-11) cols =
  let n = Array.length cols in
  let l_rows = Array.make n [||] and l_vals = Array.make n [||] in
  let u_rows = Array.make n [||] and u_vals = Array.make n [||] in
  let u_diag = Array.make n 0.0 in
  let prow = Array.make n (-1) in
  let pos = Array.make n (-1) in
  let x = Array.make n 0.0 in
  let touched = Array.make n 0 in
  let marked = Array.make n false in
  for j = 0 to n - 1 do
    let ntouch = ref 0 in
    Sparse.iter
      (fun i v ->
        x.(i) <- v;
        marked.(i) <- true;
        touched.(!ntouch) <- i;
        incr ntouch)
      cols.(j);
    let u_r = ref [] and u_v = ref [] in
    for k = 0 to j - 1 do
      let xk = x.(prow.(k)) in
      if xk <> 0.0 then begin
        u_r := k :: !u_r;
        u_v := xk :: !u_v;
        let rows = l_rows.(k) and vals = l_vals.(k) in
        for t = 0 to Array.length rows - 1 do
          let i = rows.(t) in
          if not marked.(i) then begin
            marked.(i) <- true;
            touched.(!ntouch) <- i;
            incr ntouch
          end;
          x.(i) <- x.(i) -. (vals.(t) *. xk)
        done
      end
    done;
    let piv = ref (-1) and best = ref 0.0 in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && abs_float x.(i) > !best then begin
        best := abs_float x.(i);
        piv := i
      end
    done;
    if !piv < 0 || !best < pivot_tol then raise (Lu.Singular j);
    let r = !piv in
    prow.(j) <- r;
    pos.(r) <- j;
    u_diag.(j) <- x.(r);
    let l_r = ref [] and l_v = ref [] in
    let d = 1.0 /. x.(r) in
    for t = 0 to !ntouch - 1 do
      let i = touched.(t) in
      if pos.(i) < 0 && x.(i) <> 0.0 then begin
        l_r := i :: !l_r;
        l_v := (x.(i) *. d) :: !l_v
      end;
      x.(i) <- 0.0;
      marked.(i) <- false
    done;
    l_rows.(j) <- Array.of_list !l_r;
    l_vals.(j) <- Array.of_list !l_v;
    u_rows.(j) <- Array.of_list !u_r;
    u_vals.(j) <- Array.of_list !u_v
  done;
  {
    Lu.l_index = l_rows;
    l_value = l_vals;
    u_index = u_rows;
    u_value = u_vals;
    diag = u_diag;
    pivot_rows = prow;
  }
