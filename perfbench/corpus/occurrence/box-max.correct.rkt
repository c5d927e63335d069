(module box-max
  (provide [observe (-> integer? integer?)])
  (define best (box 0))
  (define (observe n)
    (begin
      (if (> n (unbox best)) (set-box! best n) 0)
      (assert (>= (unbox best) 0))
      (unbox best))))
