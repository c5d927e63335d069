(module box-acc
  (provide [bump (-> integer? integer?)])
  (define acc (box 0))
  (define (bump n)
    (begin
      (if (>= n 0) (set-box! acc (+ (unbox acc) n)) 0)
      (assert (>= (unbox acc) 0))
      (unbox acc))))
