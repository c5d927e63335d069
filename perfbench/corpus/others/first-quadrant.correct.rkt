(module first-quadrant
  (provide [first-quadrant? (-> (-> (one-of/c "x" "y") integer?) boolean?)])
  (define (first-quadrant? p)
    (and (>= (p "x") 0) (>= (p "y") 0))))
