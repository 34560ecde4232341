;; Differential corpus: setf on defstruct fields, which the bytecode
;; compiler covers — inside compiled functions, as several pairs in one
;; setf, in a recursive tree walk, and with side effects that pin the
;; evaluation order (the new value first, then the object).

(defstruct tnode (pointers lft rgt) (data key total))

(defun mk (k l r) (make-tnode 'key k 'lft l 'rgt r))

;; A post-order walk whose tail stores into a field (the shape of the
;; paper's struct-tree walkers).
(defun sum-tree (n)
  (if (null n)
      0
      (setf (total n) (+ (key n) (sum-tree (lft n)) (sum-tree (rgt n))))))

(let ((tr (mk 1 (mk 2 (mk 4 nil nil) nil) (mk 3 nil (mk 5 nil nil)))))
  (print (sum-tree tr))
  (print (total (lft tr)))
  (print (total (rgt tr))))

;; setf returns the stored value; several pairs store left to right.
(defun swap-keys (a b)
  (let ((ka (key a)))
    (setf (key a) (key b) (key b) ka)))

(let ((a (mk 'x nil nil)) (b (mk 'y nil nil)))
  (print (swap-keys a b))
  (print (list (key a) (key b))))

;; Evaluation order: the value form runs before the object form.
(defun noisy-set (n)
  (setf (total (progn (print 'object) n)) (progn (print 'value) 42)))

(let ((n (mk 0 nil nil)))
  (print (noisy-set n))
  (print (total n)))

;; Pointer fields: relink a chain through compiled setf.
(defun push-left (n k) (setf (lft n) (mk k (lft n) nil)))
(let ((root (mk 0 nil nil)))
  (push-left root 1)
  (push-left root 2)
  (print (list (key (lft root)) (key (lft (lft root))))))

;; A struct field setf on a non-instance fails with the same message on
;; both engines, after the value form ran.
(defun bad-set (x) (setf (key x) (progn (print 'value-before-error) 1)))
(bad-set 'not-a-node)
