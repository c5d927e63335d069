(module zombie
  (provide
    [make-posn (-> integer? integer? (-> (one-of/c "x" "y") integer?))]
    [posn-dist (-> (-> (one-of/c "x" "y") number?) (-> (one-of/c "x" "y") number?) integer?)]
    [first-quadrant? (-> (-> (one-of/c "x" "y") number?) boolean?)])
  (define (make-posn x y)
    (lambda (msg) (if (equal? msg "x") x y)))
  (define (abs n) (if (< n 0) (- 0 n) n))
  (define (posn-dist p q)
    (+ (abs (- (p "x") (q "x"))) (abs (- (p "y") (q "y")))))
  (define (first-quadrant? p)
    (and (>= (p "x") 0) (>= (p "y") 0))))
